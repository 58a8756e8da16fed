package variation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"repro/internal/buffering"
	"repro/internal/model"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/wire"
)

// This file is the yield-aware buffering layer: instead of accepting
// whatever (repeater size, count) the nominal weighted objective
// picks, it searches for the cheapest design whose Monte Carlo timing
// yield meets a target — the titled paper's sizing-for-yield loop.
// The buffering search supplies the nominal design and the cost-ordered
// candidate grid, and this package the walk and its statistical
// feasibility check. Both depend on the link class alone, so a caller
// that sizes a class many times keeps them (SizeClassForYieldCtx, with
// the grid cut to the cells a walk can reach); a one-shot search runs
// one buffering.Search for both.

// SizingOptions configures a yield-constrained buffering search.
type SizingOptions struct {
	// Buffering configures the candidate space and the nominal
	// objective (coefficients, sizes, power weight, input slew).
	Buffering buffering.Options
	// Space is the variation model.
	Space Space
	// Target is the delay constraint in seconds.
	Target float64
	// YieldTarget in (0,1) is the required probability of meeting
	// Target.
	YieldTarget float64
	// MC budgets the per-candidate yield estimate. The same seed is
	// reused for every candidate, so candidates are compared on
	// common random numbers and the search is deterministic.
	MC YieldOptions
}

// ErrYieldUnreachable reports that no candidate within the budget met
// the yield target.
var ErrYieldUnreachable = errors.New("variation: no buffering candidate meets the yield target")

// SizedDesign is the outcome of a yield-constrained search.
type SizedDesign struct {
	// Design is the selected buffering solution.
	Design buffering.Design
	// Estimate is the Monte Carlo evaluation of Design's yield.
	Estimate Estimate
	// Nominal is the unconstrained weighted-objective design the
	// search started from.
	Nominal buffering.Design
	// Resized reports whether the yield constraint moved the design
	// away from Nominal.
	Resized bool
}

// Sizing observability: how much of each sweep the walk never paid
// for. A rejected candidate stopped sampling mid-run under the
// rejection bound; an unvisited one is feasible but was never sampled —
// a cheaper group passed first, or it is the nominal design's twin. A
// banked sample's draw, perturbation, rescale and extraction came from
// the search's sample bank, derived by an earlier pass.
var (
	metSizingRejected  = obs.NewCounter("variation.sizing_rejected")
	metSizingUnvisited = obs.NewCounter("variation.sizing_unvisited")
	metSizingBanked    = obs.NewCounter("variation.sizing_banked")
)

// sizingGroup is how many feasible candidates one sampling pass of the
// walk carries. A pass shares each sample's draw, perturbation and
// rescale across its group, and the walk ends at the first group
// holding a passing candidate: small groups draw fewer
// candidate-samples, large ones share more per-sample work.
// EXPERIMENTS.md records the sizes tried.
const sizingGroup = 4

// maxCandidates caps how many feasible candidates the walk may submit
// to sampling before giving up.
const maxCandidates = 48

// SizeForYieldCtx selects the cheapest (repeater size, count) whose
// estimated timing yield reaches the target. The nominal
// weighted-objective design is evaluated first; only if it misses the
// target does the search walk the cost-ordered candidate grid: the
// first maxCandidates candidates whose nominal delay meets the target,
// sizingGroup at a time on common random numbers, up to the first
// group holding a candidate whose estimate reaches the yield target.
//
// An mc or isle run, the nominal's included, stops sampling at the step
// end where its failures so far prove that its yield must end below
// the target (rejectBound), since such a candidate is never selected.
// Every returned design, estimate and error is therefore the one a full
// sweep — every feasible candidate sampled to its budget — selects, at
// every Workers value. ctx is checked at every sampling step and
// between groups, so a search can be interrupted or deadline-bound; a
// search that completes under a live context is bit-identical to one
// under context.Background().
//
// It is the one-shot form of SizeClassForYieldCtx: one buffering.Search
// serves the nominal design and, on a miss, the whole cost-ordered
// grid, so the grid evaluates only the cells Optimize left untouched.
func SizeForYieldCtx(ctx context.Context, base *tech.Technology, seg wire.Segment, o SizingOptions) (SizedDesign, error) {
	if err := o.validate(); err != nil {
		return SizedDesign{}, err
	}
	bs, err := buffering.NewSearch(seg, o.Buffering)
	if err != nil {
		return SizedDesign{}, err
	}
	nominal, err := bs.Optimize()
	if err != nil {
		return SizedDesign{}, err
	}
	// The whole grid holds every cell a reachable list keeps, in the
	// same order, so the walk reads the same candidates from it.
	return sizeWalk(ctx, base, seg, o, nominal, func() (*SizingGrid, error) {
		cands, err := bs.Candidates()
		return &SizingGrid{cells: cands, size: len(cands)}, err
	})
}

// SizeClassForYieldCtx is SizeForYieldCtx for a caller that keeps what
// depends only on the link class: nominal must be
// buffering.Optimize(seg, o.Buffering), and grid must return
// NewSizingGrid(seg, o.Buffering). grid is called at most once, and only
// when the nominal design misses. The answer is SizeForYieldCtx's, bit
// for bit.
func SizeClassForYieldCtx(ctx context.Context, base *tech.Technology, seg wire.Segment, o SizingOptions,
	nominal buffering.Design, grid func() (*SizingGrid, error)) (SizedDesign, error) {
	if err := o.validate(); err != nil {
		return SizedDesign{}, err
	}
	return sizeWalk(ctx, base, seg, o, nominal, grid)
}

// validate checks the search's targets and variation space.
func (o SizingOptions) validate() error {
	if o.Target <= 0 {
		return fmt.Errorf("variation: non-positive delay target %g", o.Target)
	}
	if o.YieldTarget <= 0 || o.YieldTarget >= 1 {
		return fmt.Errorf("variation: yield target %g outside (0,1)", o.YieldTarget)
	}
	return o.Space.Validate()
}

// SizingGrid is a link class's candidate grid as the sizing walk reads
// it: the cells, in cost order, that some delay target puts among the
// first maxCandidates+1 whose nominal delay meets it, and the size of
// the whole grid. It depends on the link class alone — never on the
// delay or yield target — so a caller that sizes one class many times
// builds it once. It is read-only once built.
type SizingGrid struct {
	cells []buffering.Design
	size  int
}

// NewSizingGrid evaluates and cost-orders the whole candidate grid of a
// link class (buffering.Candidates) and keeps the cells a sizing walk
// can reach: a cell is kept when fewer than maxCandidates+1 cells before
// it have a nominal delay at most its own.
//
// That is exact. A delay target T admits a cell whose delay is not over
// T. The k-th admitted cell has k−1 admitted cells before it, and every
// earlier cell whose delay is at most its own is admitted too, so at
// most k−1 earlier cells have a delay at most its own: for
// k ≤ maxCandidates+1 it is kept. So the kept cells that T admits begin
// with the first maxCandidates+1 cells of the whole grid that T admits,
// in order — all the walk reads of it: maxCandidates to sample and one
// more to tell that the budget ran out. A NaN delay, which every target
// admits, counts as below every other.
func NewSizingGrid(seg wire.Segment, o buffering.Options) (*SizingGrid, error) {
	cands, err := buffering.Candidates(seg, o)
	if err != nil {
		return nil, err
	}
	return &SizingGrid{cells: reachableCells(cands), size: len(cands)}, nil
}

// reachableCells returns the cells of a cost-ordered list that fewer
// than maxCandidates+1 earlier cells match or beat on delay, in order;
// see NewSizingGrid.
func reachableCells(cands []buffering.Design) []buffering.Design {
	const reach = maxCandidates + 1
	low := make([]float64, 0, reach) // the reach lowest delays so far, ascending
	var kept []buffering.Design
	for _, d := range cands {
		delay := d.Delay
		if math.IsNaN(delay) {
			delay = math.Inf(-1)
		}
		if len(low) == reach {
			if low[reach-1] <= delay {
				continue // reach earlier cells match or beat it
			}
			low = low[:reach-1]
		}
		i, _ := slices.BinarySearch(low, delay)
		low = slices.Insert(low, i, delay)
		kept = append(kept, d)
	}
	return slices.Clone(kept)
}

// sizeWalk is the search behind both entries, after their validation:
// the nominal design's estimate and, when it misses, the walk over the
// grid's feasible cells.
func sizeWalk(ctx context.Context, base *tech.Technology, seg wire.Segment, o SizingOptions,
	nominal buffering.Design, grid func() (*SizingGrid, error)) (SizedDesign, error) {
	sc := &LinkScenario{
		Base:   base,
		Coeffs: o.Buffering.Coeffs,
		Space:  o.Space,
		Spec:   lineSpec(nominal, seg, o.Buffering),
		Target: o.Target,
	}
	if err := sc.Validate(); err != nil {
		return SizedDesign{}, err
	}
	// Every pass samples on the same seed, so all of them share one
	// bank of the samples' candidate-independent work.
	samples := o.MC.ResolvedSamples()
	pass := sizingPass{maxFail: math.Inf(1), bank: getSampleBank(samples)}
	defer putSampleBank(pass.bank)
	// A sample that leaves the line no copper core fails with a
	// validation error, and retiring candidates early could skip the
	// sample that raises it. relFactor clamps the width factor at 0.6,
	// so where that narrowest width (perturbSegment's arithmetic) keeps
	// the core no sample can fail and the bound is on; otherwise the
	// walk is one pass of every candidate, exactly the full sweep.
	if f := 0.6; seg.Width+seg.Width*(f-1) > 2*base.Barrier {
		pass.maxFail = rejectBound(o.YieldTarget, samples)
	}
	scenario := func(specs ...model.LineSpec) *MultiScenario {
		return &MultiScenario{Base: base, Coeffs: o.Buffering.Coeffs, Space: o.Space, Specs: specs, Target: o.Target}
	}
	est, err := estimateYieldsCtx(ctx, scenario(sc.Spec), o.MC, pass)
	if err != nil {
		return SizedDesign{}, err
	}
	if est[0].Yield >= o.YieldTarget {
		return SizedDesign{Design: nominal, Estimate: est[0], Nominal: nominal}, nil
	}

	// The nominal design missed the target: walk the cost-ordered
	// candidate grid. Candidates that cannot meet the target even at
	// the nominal corner never meet it under variation, so they are
	// skipped without charging the Monte Carlo budget.
	if err := ctx.Err(); err != nil {
		return SizedDesign{}, err
	}
	g, err := grid()
	if err != nil {
		return SizedDesign{}, err
	}
	feasible := make([]buffering.Design, 0, maxCandidates)
	overBudget := false
	for _, d := range g.cells {
		if d.Delay > o.Target {
			continue
		}
		if len(feasible) >= maxCandidates {
			overBudget = true
			break
		}
		feasible = append(feasible, d)
	}
	if len(feasible) == 0 {
		return SizedDesign{}, fmt.Errorf("%w (searched %d candidates)", buffering.ErrNoFeasibleDesign, g.size)
	}
	// Validate every feasible spec before sampling any, so a bad spec is
	// reported whichever group would have passed first.
	specs := make([]model.LineSpec, len(feasible))
	for c, d := range feasible {
		specs[c] = lineSpec(d, seg, o.Buffering)
	}
	if err := scenario(specs...).Validate(); err != nil {
		return SizedDesign{}, err
	}
	// The nominal's twin (same kind, size and count) would reproduce the
	// nominal's missing estimate bit for bit, so it is never sampled.
	walk := make([]int, 0, len(feasible))
	for c, d := range feasible {
		if d.Kind != nominal.Kind || d.Size != nominal.Size || d.N != nominal.N {
			walk = append(walk, c)
		}
	}
	step := sizingGroup
	if math.IsInf(pass.maxFail, 1) {
		step = max(len(walk), 1)
	}
	sampled := 0
	defer func() { metSizingUnvisited.Add(int64(len(feasible) - sampled)) }()
	for lo := 0; lo < len(walk); lo += step {
		if err := ctx.Err(); err != nil {
			return SizedDesign{}, err
		}
		idx := walk[lo:min(lo+step, len(walk))]
		group := make([]model.LineSpec, len(idx))
		for i, c := range idx {
			group[i] = specs[c]
		}
		ests, err := estimateYieldsCtx(ctx, scenario(group...), o.MC, pass)
		if err != nil {
			return SizedDesign{}, err
		}
		sampled += len(idx)
		for i, e := range ests {
			if e.Yield >= o.YieldTarget {
				des := feasible[idx[i]]
				resized := des.Size != nominal.Size || des.N != nominal.N || des.Kind != nominal.Kind
				return SizedDesign{Design: des, Estimate: e, Nominal: nominal, Resized: resized}, nil
			}
		}
	}
	if overBudget {
		return SizedDesign{}, fmt.Errorf("%w (budget of %d candidates exhausted)", ErrYieldUnreachable, maxCandidates)
	}
	// Every feasible candidate was evaluated and none reached the
	// target: the geometry is fine, the yield target is what cannot be
	// met — report ErrYieldUnreachable, not a feasibility failure.
	return SizedDesign{}, fmt.Errorf("%w (none of %d feasible candidates reaches yield %g)",
		ErrYieldUnreachable, len(feasible), o.YieldTarget)
}

// rejectBound returns the contribution sum past which a Welford fold
// with a budget of samples can no longer end at a yield of yieldTarget
// or more. Contributions are non-negative and a run ends at or before
// its budget, so a fold whose contributions so far sum to S ends with a
// failure probability of at least S/samples; once S exceeds
// (1 − yieldTarget)·samples its yield must end below the target. The
// relative margin — 1e-9, plus the budget's share of worst-case Welford
// rounding — and the absolute 2⁻⁵⁰ keep the rounding of the fold and of
// the final 1 − p from ever turning that into a passing yield; they can
// only delay a rejection, never change an answer.
func rejectBound(yieldTarget float64, samples int) float64 {
	n := float64(samples)
	return (1 - yieldTarget + 0x1p-50) * n * (1 + 1e-9 + n*0x1p-50)
}

// lineSpec assembles the model spec for one buffering design on a
// segment.
func lineSpec(d buffering.Design, seg wire.Segment, o buffering.Options) model.LineSpec {
	slew := o.InputSlew
	if slew == 0 {
		slew = 300e-12
	}
	return model.LineSpec{Kind: d.Kind, Size: d.Size, N: d.N, Segment: seg, InputSlew: slew}
}
