package variation

import (
	"math"

	"repro/internal/obs"
)

// Quasi-Monte Carlo rung of the estimator ladder: the shared-sample
// kernel with scrambled Sobol points through the inverse normal CDF in
// place of pseudo-random draws. Low-discrepancy points cover the
// standardized space far more evenly than PRNG draws, which buys a
// convergence rate approaching 1/n (against MC's 1/√n) for the smooth
// 2–3σ indicator integrals the router sends here.
//
// A single deterministic sequence has no variance to report, so the
// kernel interleaves qmcReplicates independently scrambled copies of
// the sequence — sample i takes point i/R of replicate i mod R — and
// the estimate's standard error is the spread of the replicate means.
// Each replicate is an unbiased estimator (the digital shift
// randomizes without breaking the net structure), so the error bar is
// honest. Sample i's point depends only on (Seed, i), never on which
// worker computes it, preserving the engine's any-worker-count
// determinism contract.

// qmcReplicates is the number of interleaved scrambled copies; 8 gives
// 7 degrees of freedom for the error bar while keeping each copy long
// enough to realize the low-discrepancy advantage.
const qmcReplicates = 8

var metRunsQMC = obs.NewCounter("variation.runs_qmc")

// qmcStats reduces a qmc fold: the mean of replicate means and its
// standard error (0 while fewer than two replicates have data — the
// caller treats that as "not yet resolvable").
func qmcStats(f *fold) (p, se float64, reps int) {
	var means [qmcReplicates]float64
	var sum float64
	for r, n := range f.rn {
		if n == 0 {
			continue
		}
		means[reps] = f.rsum[r] / float64(n)
		sum += means[reps]
		reps++
	}
	if reps == 0 {
		return 0, 0, reps
	}
	p = sum / float64(reps)
	if reps < 2 {
		return p, 0, reps
	}
	var ss float64
	for i := 0; i < reps; i++ {
		d := means[i] - p
		ss += d * d
	}
	se = math.Sqrt(ss / float64(reps*(reps-1)))
	return p, se, reps
}
