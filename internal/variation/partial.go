package variation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync/atomic"

	"repro/internal/estimator"
	"repro/internal/model"
	"repro/internal/obs"
)

// This file is the distributed half of the sampling kernel: a yield
// estimation's sample-index range [0, Samples) can be split into
// contiguous shards, each shard evaluated anywhere (the draws are keyed
// by (Seed, index), never by worker or host), and the shards merged
// back into the exact Estimate a single-process run produces.
//
// A shard runs the local kernel's driver over its own index range. Folds
// do not merge associatively in floating point, so instead of folding
// the contribution rows the shard keeps the sparse raw contributions —
// the global indices that failed and, under importance sampling, their
// likelihood-ratio weights. MergePartials feeds them, zeros implied for
// every index between failures, through the same fold the local run
// uses, in index order. Five flops per sample makes the replay ~1000×
// cheaper than the evaluation it summarizes, and the result is
// bit-identical to the local run because it is the same fold fed the
// same numbers in the same order.
//
// The global stopping rule lives in the merge, not the shards: a shard
// always evaluates its full range, and MergePartials consults the fold's
// stopping rule at the checkpoints the local run consults it at,
// truncating at the sample the local run would have stopped at.

// ErrNotShardable marks a yield request that cannot be partitioned by
// sample index: AIS (the adapted proposal depends on all prior
// stages), WCD (no sampling at all), the auto-routed ≥3σ cascade (the
// worst-case-distance pre-filter may answer without drawing a single
// sample), and sizing runs (the candidate search drives sampling
// adaptively; the predint facade refuses those with this same value).
// Callers run these locally through the normal ladder.
var ErrNotShardable = errors.New("variation: request cannot be sharded by sample index")

var metShardsCollected = obs.NewCounter("variation.shards_collected")

// Partial is one contiguous shard's contribution to an estimation:
// the sparse nonzero sample contributions over global sample indices
// [Start, Start+Count). It is the unit of the coordinator's shard
// protocol and is designed to survive a JSON round trip bit-exactly
// (Go's float64 encoding is shortest-representation, which decodes to
// the identical bit pattern).
type Partial struct {
	// Start is the shard's first global sample index; Count the number
	// of samples it evaluated.
	Start int `json:"start"`
	Count int `json:"count"`
	// FailIdx lists the global indices of failing samples, ascending.
	// Indices absent from the list contributed exactly 0 to the fold.
	FailIdx []int `json:"fail_idx,omitempty"`
	// Weights, when non-nil, holds the likelihood-ratio weight of each
	// failing sample (same order as FailIdx) — the importance-sampled
	// contribution. Nil means every failure contributed 1 (plain
	// MC/QMC indicators).
	Weights []float64 `json:"weights,omitempty"`
}

// validate checks internal consistency against a total sample budget
// and the merge's shifted flag: only an importance-sampled merge
// carries weights, one finite positive likelihood ratio per failure.
func (p Partial) validate(samples int, shifted bool) error {
	if p.Start < 0 || p.Count < 0 || p.Count > samples-p.Start {
		return fmt.Errorf("variation: partial range [%d,%d) outside sample budget %d", p.Start, p.Start+p.Count, samples)
	}
	if !shifted && p.Weights != nil {
		return fmt.Errorf("variation: unshifted partial carries %d importance weights", len(p.Weights))
	}
	if shifted && len(p.Weights) != len(p.FailIdx) {
		return fmt.Errorf("variation: partial carries %d weights for %d failures", len(p.Weights), len(p.FailIdx))
	}
	for _, w := range p.Weights {
		if !(w > 0) || math.IsInf(w, 1) {
			return fmt.Errorf("variation: partial weight %g is not a finite positive likelihood ratio", w)
		}
	}
	prev := p.Start - 1
	for _, i := range p.FailIdx {
		if i <= prev || i >= p.Start+p.Count {
			return fmt.Errorf("variation: partial failure index %d outside ascending range [%d,%d)", i, p.Start, p.Start+p.Count)
		}
		prev = i
	}
	return nil
}

// ShardableKind resolves the options to the concrete estimator rung and
// reports whether that rung distributes by sample index. MC, ISLE, and
// QMC do — every draw is a pure function of (Seed, index), and ISLE's
// shift (isleShift) and QMC's Sobol scrambles are deterministic in
// (scenario, Seed), so independent replicas compute identical shard
// inputs. AIS, WCD, and the auto-routed ≥3σ cascade do not (see
// ErrNotShardable).
func (o YieldOptions) ShardableKind() (estimator.Kind, bool, error) {
	kind, err := o.resolveKind()
	if err != nil {
		return kind, false, err
	}
	if kind == estimator.AIS || kind == estimator.WCD {
		return kind, false, nil
	}
	if o.Estimator == estimator.Auto && o.TargetSigma >= wcdPrefilterSigma {
		// The pre-filter may certify the candidate analytically and
		// answer with zero samples; distributing would skip it.
		return kind, false, nil
	}
	return kind, true, nil
}

// ResolvedSamples reports the sample budget the options resolve to
// after defaulting — the index range [0, samples) a shard planner
// splits, aligning shard boundaries to Batch.
func (o YieldOptions) ResolvedSamples() int {
	return o.withDefaults().Samples
}

// ISLEShift memoizes the ISLE rung's mean shift of one scenario
// across the shards collected on it, so a replica searches for the
// shift once per scenario rather than once per shard. Its fields are
// unexported and only the search (isleShift) fills them, so no caller
// can hand the kernel a shift of its own. A search that fails or is
// cancelled stores nothing, and the next collect searches again. The
// zero value is empty and ready to use; an ISLEShift belongs to the one
// scenario it is collected with. Safe for concurrent use: collects that
// race on an empty memo each search, find the same shift, and the first
// to finish stores it.
type ISLEShift struct {
	found atomic.Pointer[[]float64]
}

// get returns the memoized shift of sc, searching when the memo is
// empty. A nil shift (plain Monte Carlo) is a found shift too.
func (m *ISLEShift) get(ctx context.Context, sc *LinkScenario) ([]float64, error) {
	if p := m.found.Load(); p != nil {
		return *p, nil
	}
	shift, err := isleShift(ctx, sc)
	if err != nil {
		return nil, err
	}
	m.found.CompareAndSwap(nil, &shift)
	return *m.found.Load(), nil
}

// CollectPartialCtx evaluates the scenario over global sample indices
// [start, start+count) and returns the shard's sparse contributions,
// the resolved estimator rung, and whether importance sampling was in
// effect. The evaluation is the local run's driver (same draws, same
// kernel, same ISLE shift), so a set of shards covering [0, Samples)
// reproduces a local run's contributions exactly. An ISLE shard takes
// its shift from shift, the scenario's memo, which searches only when
// it is empty.
// The shard never applies the stopping rule — that is global and
// belongs to MergePartials.
func CollectPartialCtx(ctx context.Context, sc *LinkScenario, shift *ISLEShift, o YieldOptions, start, count int) (Partial, estimator.Kind, bool, error) {
	if err := sc.Validate(); err != nil {
		return Partial{}, estimator.Auto, false, err
	}
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return Partial{}, estimator.Auto, false, err
	}
	kind, ok, err := o.ShardableKind()
	if err != nil {
		return Partial{}, kind, false, err
	}
	if !ok {
		return Partial{}, kind, false, fmt.Errorf("%w: %s", ErrNotShardable, kind)
	}
	if start < 0 || count < 0 || count > o.Samples-start {
		return Partial{}, kind, false, fmt.Errorf("variation: shard range [%d,%d) outside sample budget %d", start, start+count, o.Samples)
	}

	ms := &MultiScenario{
		Base:   sc.Base,
		Coeffs: sc.Coeffs,
		Space:  sc.Space,
		Specs:  []model.LineSpec{sc.Spec},
		Target: sc.Target,
	}
	// ISLE: the first shard on a replica places the shift (isleShift,
	// 30–40 delay evaluations) and later ones read it from the memo.
	// Replicas stay interchangeable: each computes the identical shift
	// from the scenario.
	var shifts [][]float64
	if kind == estimator.ISLE {
		sh, err := shift.get(ctx, sc)
		if err != nil {
			return Partial{}, kind, false, err
		}
		shifts = [][]float64{sh}
	}
	d := buildDriver(ms, o, kind, shifts)
	defer d.close()
	shifted := d.lk.shiftedC[0]

	var failIdx []int
	var wts []float64
	err = d.run(ctx, start, count, func(base, n int, rows []float64) {
		// Count first, grow exactly: the retained fail lists take one
		// allocation per batch at most instead of append's doubling walk.
		nf := 0
		for _, x := range rows {
			if x != 0 {
				nf++
			}
		}
		if nf == 0 {
			return
		}
		failIdx = slices.Grow(failIdx, nf)
		if shifted {
			wts = slices.Grow(wts, nf)
		}
		for k, x := range rows {
			if x != 0 {
				failIdx = append(failIdx, base+k)
				if shifted {
					wts = append(wts, x)
				}
			}
		}
	})
	if err != nil {
		return Partial{}, kind, shifted, err
	}
	metShardsCollected.Inc()
	return Partial{Start: start, Count: count, FailIdx: failIdx, Weights: wts}, kind, shifted, nil
}

// MergePartials folds a set of shards back into the single-process
// Estimate. The shards must cover a contiguous prefix [0, avail) of the
// sample range (any order, no gaps, no overlap); done reports whether
// the fold is final — either the global stopping rule fired inside the
// prefix, or the prefix covers the whole budget. While done is false
// the returned Estimate summarizes the prefix and the caller must keep
// extending it.
//
// The fold is the local run's own (Welford in index order, per-replicate
// sums for QMC), with the stopping rule consulted at the same
// checkpoints, so the final Estimate — including Samples, StdErr, and
// VarianceReduction — is bit-identical to EstimateLinkYieldCtx at any
// shard count. Partials whose weights disagree with shifted, or that fold to a
// non-finite standard error, are rejected.
func MergePartials(o YieldOptions, kind estimator.Kind, shifted bool, parts []Partial) (Estimate, bool, error) {
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return Estimate{}, false, err
	}
	if len(parts) == 0 {
		return Estimate{}, false, errors.New("variation: no partials to merge")
	}
	sorted := make([]Partial, len(parts))
	copy(sorted, parts)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a].Start < sorted[b].Start })
	if sorted[0].Start != 0 {
		return Estimate{}, false, fmt.Errorf("variation: partials start at %d, want a contiguous prefix from 0", sorted[0].Start)
	}
	if kind == estimator.QMC && shifted {
		return Estimate{}, false, errors.New("variation: QMC partials cannot be importance-sampled")
	}
	next := 0
	for _, p := range sorted {
		if err := p.validate(o.Samples, shifted); err != nil {
			return Estimate{}, false, err
		}
		if p.Start != next {
			return Estimate{}, false, fmt.Errorf("variation: partials leave a gap at sample %d (next shard starts at %d)", next, p.Start)
		}
		next = p.Start + p.Count
	}
	// Expand each partial into dense contributions one stretch at a
	// time, cut at multiples of Batch so every checkpoint ends a stretch.
	f := fold{qmc: kind == estimator.QMC, shifted: shifted}
	xs := make([]float64, min(Batch, o.Samples))
	stopped := false
outer:
	for _, p := range sorted {
		fi := 0
		for lo, end := p.Start, p.Start+p.Count; lo < end; {
			hi := min(end, (lo/Batch+1)*Batch)
			row := xs[:hi-lo]
			clear(row)
			for ; fi < len(p.FailIdx) && p.FailIdx[fi] < hi; fi++ {
				x := 1.0
				if shifted {
					x = p.Weights[fi]
				}
				row[p.FailIdx[fi]-lo] = x
			}
			f.add(lo, hi-lo, row, 1)
			if checkpoint(o, hi-1) && f.stop(o) {
				stopped = true
				break outer
			}
			lo = hi
		}
	}
	est := f.estimate()
	// Finite weights near the float64 limit still overflow the variance.
	if math.IsInf(est.StdErr, 0) {
		return Estimate{}, false, errors.New("variation: partials fold to a non-finite estimate")
	}
	return est, stopped || f.n >= o.Samples, nil
}
