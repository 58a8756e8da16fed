package variation

import (
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/estimator"
	"repro/internal/obs"
)

// Adaptive importance sampling: the deep-tail (≳4σ) rung of the
// estimator ladder. A single ISLE mean shift stops tracking the
// failure region past ~4σ — the region is curved and can split into
// lobes a lone shifted Gaussian cannot cover, and its likelihood
// ratios degenerate. AIS instead *learns* the proposal by the
// cross-entropy method: draw a stage from the current proposal, rank
// the draws by how deep into the failure direction they reach (the
// delay metric itself — informative even when no draw fails yet),
// refit a defensive Gaussian mixture on the elite set, repeat. The
// final stage draws from the adapted mixture and estimates with
// self-normalized likelihood-ratio weights, with the effective sample
// size guarding against a proposal that secretly missed the region.
//
// Every stage runs through the sampling driver (multi.go) with the lane
// kernel in its AIS mode: the draw phase draws each sample from the
// stage's proposal and weighs it, and the lane's delay phase scores it.
//
// Determinism contract: stage budgets are fixed up front (never
// data-dependent), sample i of a run draws from the stream keyed
// (Seed, stage offset + i), every per-sample result lands in an
// index-addressed slot, and ranking, refitting, and the final fold all
// walk those slots in deterministic order — so the returned Estimate
// is bit-identical for every Workers value, like every other rung.

const (
	// aisMaxStages caps the cross-entropy adaptation stages before the
	// final estimation stage; adaptation exits early once the proposal
	// lands in the failure region.
	aisMaxStages = 6
	// aisEliteDivisor: the top 1/10 of a stage's draws (by delay depth)
	// seed the refit, extended to include every failing draw.
	aisEliteDivisor = 10
	// aisMinElites floors the elite set so tiny stages still fit a
	// meaningful mixture.
	aisMinElites = 32
	// aisComponents is the mixture size: two lobes cover the
	// symmetric NMOS/PMOS failure directions of the delay models.
	aisComponents = 2
	// aisMinESSFrac: when the final stage's effective sample size
	// falls below this fraction of its draws, the standard error is
	// widened by the shortfall — a degenerate weight set must not
	// masquerade as a converged estimate.
	aisMinESSFrac = 0.1
	// aisExploreSigmaFloor keeps the proposal wide during adaptation:
	// elite sets are tight, and fitting their true spread would let
	// the classic cross-entropy failure mode bite — the proposal's
	// variance collapses faster than its mean travels, and the
	// iteration stalls short of a deep failure region. Unit-wide
	// components keep each stage reaching ~3σ past its mean; only the
	// final refit (which feeds the estimation stage, where a tight
	// proposal is the point) fits at the default floor.
	aisExploreSigmaFloor = 1.0
)

var metRunsAIS = obs.NewCounter("variation.runs_ais")

// aisState is the lane kernel's AIS mode: the current stage's proposal
// and the run's index-addressed per-sample results, slot j holding
// global sample base+j — the draw (kept for refitting), its delay and
// its importance weight. The run refits prop and moves base between
// driver runs, never during one, so worker reads race with nothing.
// States are pooled across runs with their buffers.
type aisState struct {
	prop                estimator.Mixture
	base                int
	zs, delays, weights []float64
	// idx, pts and eliteW are refit's ranking and elite-set scratch.
	idx    []int
	pts    [][]float64
	eliteW []float64
	// metric, when set, scores a lane of transposed draws into out in
	// place of the link's delay phases: the closed-form cross-checks
	// substitute a linear metric here.
	metric func(z *[Dims][]float64, n int, out []float64)
}

var aisStatePool = sync.Pool{New: func() any { return new(aisState) }}

// getAISState checks out a state for a run of up to samples draws,
// starting from the standard proposal.
func getAISState(samples int) *aisState {
	a := aisStatePool.Get().(*aisState)
	if cap(a.delays) < samples {
		a.zs = make([]float64, samples*Dims)
		a.delays = make([]float64, samples)
		a.weights = make([]float64, samples)
	}
	a.prop = estimator.StandardProposal()
	a.base = 0
	a.metric = nil
	return a
}

// propose maps the lane's draws of global samples [start, start+n)
// (selectors in ls.sel, normals in ls.epsT) through the stage proposal:
// each sample's proposal draw and importance weight go to its slot,
// and the draw back into epsT for the delay phases.
func (a *aisState) propose(ls *laneScratch, start, n int) {
	eps := ls.eps[:]
	for k := 0; k < n; k++ {
		for d := range eps {
			eps[d] = ls.epsT[d][k]
		}
		j := start + k - a.base
		z := a.zs[j*Dims : (j+1)*Dims]
		a.prop.SampleInto(ls.sel[k], eps, z)
		a.weights[j] = a.prop.Weight01(z)
		for d, v := range z {
			ls.epsT[d][k] = v
		}
	}
}

// runAISAllCtx runs per-candidate AIS. Unlike the MC/QMC kernels there
// is no cross-candidate sample sharing: each candidate adapts its own
// proposal, so draws are candidate-specific by construction. Each
// candidate's estimate matches a standalone single-candidate run
// bit-for-bit.
func runAISAllCtx(ctx context.Context, ms *MultiScenario, ro Options) ([]Estimate, error) {
	ests := make([]Estimate, len(ms.Specs))
	for c := range ms.Specs {
		d, err := newDriver(ctx, ms.single(c), ro, estimator.AIS)
		if err != nil {
			return nil, err
		}
		ests[c], err = d.runAIS(ctx)
		d.close()
		if err != nil {
			return nil, err
		}
	}
	return ests, nil
}

// aisBudget sizes one adaptation stage: a twelfth of the budget,
// capped at 1024, so even aisMaxStages exploration rounds leave at
// least half the budget for estimation. Budgets too small to adapt
// (stage under 64 draws) skip straight to estimation from the
// standard proposal.
func aisBudget(total int) (adapt int) {
	adapt = total / 12
	if adapt > 1024 {
		adapt = 1024
	}
	if adapt < 64 {
		return 0
	}
	return adapt
}

// runAIS is the AIS run over the driver's single candidate, estimating
// P[delay > Target].
func (d *driver) runAIS(ctx context.Context) (Estimate, error) {
	metRunsAIS.Inc()
	ro, a, target := d.ro, d.lk.ais, d.lk.target
	// stage draws n samples from global index offset, filling slots
	// [0, n); after each Batch step, fn sees the filled slot count.
	stage := func(offset, n int, fn func(filled int)) error {
		a.base = offset
		return d.run(ctx, offset, n, func(base, m int, rows []float64) {
			copy(a.delays[base-offset:], rows)
			fn(base - offset + m)
		})
	}

	// Adaptation: draw a stage, refit, repeat until the proposal lands
	// in the failure region (enough draws actually fail) or the stage
	// cap is hit. Exploration refits are unweighted and wide (see
	// aisExploreSigmaFloor); the last refit before estimation is
	// likelihood-weighted and tight — that one approximates the
	// conditional failure distribution the estimator wants to draw
	// from. The stage count depends only on the (deterministic) draws,
	// never on scheduling, so the contract holds.
	adapt := aisBudget(ro.Samples)
	offset := 0
	if adapt > 0 {
		for s := 1; ; s++ {
			if err := stage(offset, adapt, func(int) {}); err != nil {
				return Estimate{}, err
			}
			offset += adapt
			nFail := 0
			for _, dl := range a.delays[:adapt] {
				if dl > target {
					nFail++
				}
			}
			if nFail >= aisMinElites || s == aisMaxStages {
				a.prop = a.refit(adapt, target, true, estimator.FitOptions{})
				break
			}
			a.prop = a.refit(adapt, target, false, estimator.FitOptions{SigmaFloor: aisExploreSigmaFloor})
		}
	}
	// Estimation: the final stage draws from the adapted proposal in
	// Batch steps, re-deriving the self-normalized estimate over the
	// prefix after each and stopping once RelErr/AbsErr is met (with the
	// ESS guard widening the error bar first, so a degenerate weight set
	// cannot stop early). There is no rule-of-three escape — the bound
	// assumes Bernoulli indicators, and AIS contributions are
	// likelihood-ratio weights — and the floor is MinSamples of
	// *estimation* draws (adaptation stages inform the proposal, not the
	// estimate). Every quantity the rule reads is a pure function of the
	// index-addressed prefix, so the early stop preserves the
	// any-worker-count bit-identity contract.
	final := 0
	err := stage(offset, ro.Samples-offset, func(n int) {
		final = n
		if (ro.RelErr > 0 || ro.AbsErr > 0) && n >= ro.MinSamples && n >= 2 {
			p, se := aisSelfNormalized(a.delays[:n], a.weights[:n], target)
			if errStop(ro, n, p, se, true) {
				d.active[0] = false
			}
		}
	})
	if err != nil {
		return Estimate{}, err
	}
	p, se := aisSelfNormalized(a.delays[:final], a.weights[:final], target)
	est := Estimate{FailProb: p, Yield: 1 - p, StdErr: se, Samples: offset + final, Shifted: true, VarianceReduction: 1, Estimator: estimator.AIS}
	if p > 0 && p < 1 && se > 0 && final > 0 {
		est.VarianceReduction = p * (1 - p) / float64(final) / (se * se)
	}
	return est, nil
}

// aisSelfNormalized is the estimate over the estimation stage's draws:
// the self-normalized ratio p̂ = Σ wᵢ·1[failᵢ] / Σ wᵢ, folded in index
// order, and its delta-method standard error
// se² = Σ (wᵢ(1[failᵢ] − p̂))² / (Σ wᵢ)², widened by the ESS guard —
// n draws whose weights concentrate on a few samples carry far less
// information than n, so the error bar grows by the shortfall instead
// of reporting phantom precision. With no weight mass it is (0, 0).
func aisSelfNormalized(delays, weights []float64, target float64) (p, se float64) {
	var sumW, sumW2, sumWI float64
	for i, w := range weights {
		sumW += w
		sumW2 += w * w
		if delays[i] > target {
			sumWI += w
		}
	}
	if sumW <= 0 {
		return 0, 0
	}
	p = sumWI / sumW
	var ss float64
	for i, w := range weights {
		ind := 0.0
		if delays[i] > target {
			ind = 1
		}
		d := w * (ind - p)
		ss += d * d
	}
	se = math.Sqrt(ss) / sumW
	if ess := estimator.ESS(sumW, sumW2); ess > 0 {
		if floor := aisMinESSFrac * float64(len(weights)); ess < floor {
			se *= math.Sqrt(floor / ess)
		}
	}
	return p, se
}

// refit selects the elite set of a stage — the deepest tenth by
// delay, extended to cover every failing draw — and fits the next
// proposal on it. With weighted set, each elite carries its
// likelihood ratio (the cross-entropy weighting that makes the fitted
// mixture approximate the conditional failure distribution rather
// than the current proposal's bias) — right for the final refit, but
// during exploration the bounded ratios of the defensive mixture make
// the shallowest elites dominate and the proposal creep, so the
// exploration refits fit unweighted. Ties break by sample index,
// keeping the ranking deterministic.
func (a *aisState) refit(n int, target float64, weighted bool, fit estimator.FitOptions) estimator.Mixture {
	delays := a.delays
	a.idx = slices.Grow(a.idx[:0], n)[:n]
	idx := a.idx
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(x, y int) int {
		if delays[x] != delays[y] {
			if delays[x] > delays[y] {
				return -1
			}
			return 1
		}
		return x - y
	})
	elite := n / aisEliteDivisor
	if elite < aisMinElites {
		elite = aisMinElites
	}
	if elite > n {
		elite = n
	}
	for elite < n && delays[idx[elite]] > target {
		elite++
	}
	a.pts = slices.Grow(a.pts[:0], elite)[:elite]
	a.eliteW = slices.Grow(a.eliteW[:0], elite)[:elite]
	var w []float64
	if weighted {
		w = a.eliteW
	}
	for j, id := range idx[:elite] {
		a.pts[j] = a.zs[id*Dims : (id+1)*Dims]
		if weighted {
			w[j] = a.weights[id]
		}
	}
	return estimator.FitMixture(aisComponents, a.pts, w, fit)
}
