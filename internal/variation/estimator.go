package variation

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/estimator"
	"repro/internal/obs"
)

// ErrNegativeWorkers rejects a negative worker count.
var ErrNegativeWorkers = errors.New("variation: negative worker count")

// Estimator observability (see internal/obs): how many samples the
// process has drawn, which estimator ran, and which stopping rule (if
// any) ended each run early.
var (
	metSamples      = obs.NewCounter("variation.samples_drawn")
	metRunsPlain    = obs.NewCounter("variation.runs_plain_mc")
	metRunsShifted  = obs.NewCounter("variation.runs_importance_sampled")
	metStopRelErr   = obs.NewCounter("variation.stop_rule_rel_err")
	metStopAbsErr   = obs.NewCounter("variation.stop_rule_abs_err")
	metStopZeroFail = obs.NewCounter("variation.stop_rule_zero_failure")
)

// This file holds the options, stopping rules and fold shared by the
// plain Monte Carlo and importance-sampling estimators; the sampling
// driver in multi.go runs them. Both estimate a failure probability
// p = P[sample fails] over the standardized normal space:
// plain MC averages the failure indicator; importance sampling draws
// from a mean-shifted normal and averages the indicator times the
// likelihood ratio, which is unbiased for any shift and dramatically
// lower-variance when the shift centers sampling on the failure
// region (the ISLE construction for small p).
//
// Determinism contract: for fixed options the returned Estimate is
// bit-identical for every Workers value. Each sample's
// draw comes from its own Stream keyed by (Seed, index); batches fan
// out over internal/pool into an index-addressed buffer; and the
// streaming mean/variance accumulator folds that buffer serially in
// index order, so no floating-point reassociation ever depends on
// scheduling.

// The driver's fixed checkpoint schedule: every run samples in steps
// of Batch samples from its first index, and the stopping rule is
// consulted at each multiple of Batch and at the end of the budget,
// once min(minSamples, Samples) samples are in. Shard planners align
// shard boundaries to Batch, since a merged fold can stop only there.
const (
	Batch      = 256
	minSamples = 512
)

// YieldOptions configures a link-yield estimation.
type YieldOptions struct {
	// Samples caps the sample count; default 4096.
	Samples int
	// RelErr, when positive, stops sampling early once the estimator's
	// relative standard error (stderr / failure probability) drops to
	// this level. Zero runs all Samples.
	//
	// With zero observed failures the relative error is undefined (the
	// mean is zero), which used to burn the whole budget silently on
	// high-yield links. Now the rule-of-three escape applies: past the
	// floor, a run with no failures stops once the 95% upper confidence
	// bound on the failure probability (3/n) drops to RelErr — at that
	// point the yield is pinned to within RelErr and more zero-failure
	// samples cannot sharpen the estimate faster.
	RelErr float64
	// AbsErr, when positive, stops sampling early once the estimator's
	// absolute standard error drops to this level; with zero observed
	// failures the rule-of-three bound 3/n stands in for the
	// unresolvable standard error. Combine with RelErr freely — the
	// first rule to fire stops the run.
	AbsErr float64
	// Workers bounds the sampling goroutines (0 = all cores, 1 =
	// serial). The estimate is bit-identical for every value.
	Workers int
	// Seed is the base PRNG seed; sample i draws from the stream
	// keyed by Seed ⊕ i.
	Seed uint64
	// Estimator pins a specific rung of the estimator ladder (mc,
	// qmc, isle, ais, wcd). isle is the ISLE-style estimator: the
	// sampling distribution is shifted to the most probable failure
	// point and samples carry likelihood-ratio weights, for failure
	// probabilities below ~1e-2. Empty (estimator.Auto) routes by
	// TargetSigma when set and falls back to plain MC otherwise.
	Estimator estimator.Kind
	// TargetSigma is the sigma level the query must resolve (a 6σ
	// query cares about failure probabilities near Φ(−6) ≈ 1e-9).
	// When positive and Estimator is Auto it drives the router, and
	// at ≥3σ it arms the worst-case-distance pre-filter: the analytic
	// bound answers certified-either-way queries without sampling.
	TargetSigma float64
}

func (o YieldOptions) withDefaults() YieldOptions {
	if o.Samples == 0 {
		o.Samples = 4096
	}
	return o
}

func (o YieldOptions) validate() error {
	if o.Samples < 0 {
		return fmt.Errorf("variation: negative sample count %d", o.Samples)
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w %d", ErrNegativeWorkers, o.Workers)
	}
	if o.RelErr < 0 || math.IsNaN(o.RelErr) {
		return fmt.Errorf("variation: negative relative-error target %g", o.RelErr)
	}
	if o.AbsErr < 0 || math.IsNaN(o.AbsErr) {
		return fmt.Errorf("variation: negative absolute-error target %g", o.AbsErr)
	}
	return nil
}

// floor is the sample count before which no stopping rule fires.
func (o YieldOptions) floor() int { return min(minSamples, o.Samples) }

// Estimate is the result of one estimation run.
type Estimate struct {
	// FailProb is the estimated failure probability; Yield is its
	// complement.
	FailProb, Yield float64
	// StdErr is the standard error of FailProb (the square root of
	// the estimator's variance).
	StdErr float64
	// Samples is the number of samples actually evaluated (the
	// stopping rule may end the run before YieldOptions.Samples).
	Samples int
	// Shifted reports whether importance sampling was in effect.
	Shifted bool
	// Estimator names the ladder rung that produced the estimate
	// (estimator.MC, ISLE, QMC, AIS, or WCD).
	Estimator estimator.Kind
	// VarianceReduction compares a hypothetical plain-MC estimator at
	// the same sample count against this run's measured per-sample
	// variance: p(1−p)/s². It is ≈1 for plain MC (by construction)
	// and >1 when importance sampling pays off; 1 when undefined (no
	// failures observed).
	VarianceReduction float64
}

// CI95 returns the half-width of the 95% normal confidence interval
// on the failure probability.
func (e Estimate) CI95() float64 { return 1.96 * e.StdErr }

// stopRule decides whether sampling may end before the budget. The
// relative rule is the historical one: stderr/mean at or below RelErr.
// The absolute rule compares stderr against AbsErr directly. Both are
// undefined with zero observed failures (the sample variance is zero),
// where the rule-of-three escape applies instead: no failures in n
// samples bounds the failure probability below 3/n at 95% confidence,
// and once that bound reaches the requested tolerance the remaining
// budget cannot improve the answer — the estimate is 0 either way.
//
// The rule-of-three bound assumes plain-MC Bernoulli indicators, so
// the escape is gated on shifted=false: an importance-sampled run's
// per-sample contributions are likelihood-ratio weights that can
// exceed 1, for which "no failures in n samples" certifies nothing —
// a shifted zero-failure run must keep drawing to its budget.
func stopRule(o YieldOptions, shifted bool, n int, mean, m2 float64) bool {
	if n < o.floor() || n < 2 || (o.RelErr <= 0 && o.AbsErr <= 0) {
		return false
	}
	return errStop(o, n, mean, math.Sqrt(m2/float64(n-1)/float64(n)), shifted)
}

// errStop is the tail every stopping rule shares once its own
// preconditions hold: the relative and absolute rules on an estimate p
// with standard error se when failures were observed, the rule-of-three
// escape (unshifted runs only) when none were.
func errStop(o YieldOptions, n int, p, se float64, shifted bool) bool {
	if p > 0 {
		if o.RelErr > 0 && se/p <= o.RelErr {
			metStopRelErr.Inc()
			return true
		}
		if o.AbsErr > 0 && se <= o.AbsErr {
			metStopAbsErr.Inc()
			return true
		}
		return false
	}
	if shifted {
		return false
	}
	bound := 3 / float64(n)
	if (o.RelErr > 0 && bound <= o.RelErr) || (o.AbsErr > 0 && bound <= o.AbsErr) {
		metStopZeroFail.Inc()
		return true
	}
	return false
}

// checkpoint reports whether the stopping rule is consulted after
// sample i: at every multiple of Batch and at the end of the budget.
func checkpoint(o YieldOptions, i int) bool {
	return (i+1)%Batch == 0 || i+1 == o.Samples
}

// fold is one candidate's streaming accumulator over its per-sample
// contributions x_i = w_i·1[fail_i], fed in sample-index order: Welford
// mean and variance for mc/isle, per-replicate sums for qmc (sample i
// lands in replicate i mod qmcReplicates). Local runs and shard merges
// both fold through it and consult stop at the same checkpoints, so a
// sharded merge is the local computation itself.
type fold struct {
	qmc, shifted bool
	n            int
	mean, m2     float64
	rn           [qmcReplicates]int
	rsum         [qmcReplicates]float64
}

// add folds the contributions of samples base, base+1, …, base+n−1,
// sample base+k's read from xs[k*stride].
func (f *fold) add(base, n int, xs []float64, stride int) {
	if f.qmc {
		for k := 0; k < n; k++ {
			r := (base + k) % qmcReplicates
			f.rn[r]++
			f.rsum[r] += xs[k*stride]
		}
		f.n += n
		return
	}
	// Locals keep the recurrence in registers across samples.
	cnt, mean, m2 := f.n, f.mean, f.m2
	for k := 0; k < n; k++ {
		x := xs[k*stride]
		cnt++
		d := x - mean
		mean += d / float64(cnt)
		m2 += d * (x - mean)
	}
	f.n, f.mean, f.m2 = cnt, mean, m2
}

// stop reports whether the fold so far may end sampling: stopRule for
// Welford folds; for qmc the same tail on the replicate-mean estimate,
// once two replicates have data (the rule-of-three escape is valid
// there — QMC indicators are unshifted Bernoulli contributions).
func (f *fold) stop(o YieldOptions) bool {
	if !f.qmc {
		return stopRule(o, f.shifted, f.n, f.mean, f.m2)
	}
	p, se, reps := qmcStats(f)
	if f.n < o.floor() || reps < 2 || (o.RelErr <= 0 && o.AbsErr <= 0) {
		return false
	}
	return errStop(o, f.n, p, se, false)
}

// retire reports, at the end of a step whose last sample is last,
// whether the candidate stops sampling: its stopping rule fires at the
// checkpoint, or, with budget left, a Welford fold's contributions so
// far sum past maxFail (rejected). maxFail is +Inf outside sizing; see
// rejectBound.
func (f *fold) retire(o YieldOptions, last int, maxFail float64) (stop, rejected bool) {
	if checkpoint(o, last) && f.stop(o) {
		return true, false
	}
	if last+1 < o.Samples && !f.qmc && f.mean*float64(f.n) > maxFail {
		return true, true
	}
	return false, false
}

func (f *fold) estimate() Estimate {
	if f.qmc {
		p, se, _ := qmcStats(f)
		e := Estimate{FailProb: p, Yield: 1 - p, StdErr: se, Samples: f.n, VarianceReduction: 1, Estimator: estimator.QMC}
		if p > 0 && p < 1 && se > 0 && f.n > 0 {
			e.VarianceReduction = p * (1 - p) / float64(f.n) / (se * se)
		}
		return e
	}
	kind := estimator.MC
	if f.shifted {
		kind = estimator.ISLE
	}
	e := Estimate{FailProb: f.mean, Yield: 1 - f.mean, Samples: f.n, Shifted: f.shifted, VarianceReduction: 1, Estimator: kind}
	if f.n > 1 {
		sampleVar := f.m2 / float64(f.n-1)
		e.StdErr = math.Sqrt(sampleVar / float64(f.n))
		if sampleVar > 0 && f.mean > 0 && f.mean < 1 {
			e.VarianceReduction = f.mean * (1 - f.mean) / sampleVar
		}
	}
	return e
}
