package variation

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/estimator"
	"repro/internal/obs"
)

// Sentinel errors for malformed sampling budgets. A negative Batch is
// the dangerous one: it used to slip through validation and send the
// sampling loop into an infinite loop (done += batch moved backwards),
// so these are rejected up front and tests pin the rejection.
var (
	ErrNegativeBatch      = errors.New("variation: negative batch size")
	ErrNegativeMinSamples = errors.New("variation: negative minimum sample count")
	ErrNegativeWorkers    = errors.New("variation: negative worker count")
)

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

// Options configures one estimation run.
type Options struct {
	// Dims is the dimension of the standardized draw (required).
	Dims int
	// Samples caps the sample count; default 4096.
	Samples int
	// MinSamples is the floor before the stopping rule may fire;
	// default min(512, Samples).
	MinSamples int
	// Batch is the fan-out granularity between stopping-rule checks;
	// default 256.
	Batch int
	// RelErr, when positive, stops sampling early once the estimator's
	// relative standard error (stderr / failure probability) drops to
	// this level. Zero runs all Samples.
	//
	// With zero observed failures the relative error is undefined (the
	// mean is zero), which used to burn the whole budget silently on
	// high-yield links. Now the rule-of-three escape applies: after
	// MinSamples, a run with no failures stops once the 95% upper
	// confidence bound on the failure probability (3/n) drops to
	// RelErr — at that point the yield is pinned to within RelErr and
	// more zero-failure samples cannot sharpen the estimate faster.
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
}

func (o Options) withDefaults() Options {
	if o.Samples == 0 {
		o.Samples = 4096
	}
	if o.MinSamples == 0 {
		o.MinSamples = 512
	}
	if o.MinSamples > o.Samples {
		o.MinSamples = o.Samples
	}
	if o.Batch == 0 {
		o.Batch = 256
	}
	return o
}

func (o Options) validate() error {
	if o.Dims <= 0 {
		return fmt.Errorf("variation: non-positive dimension %d", o.Dims)
	}
	if o.Samples < 0 {
		return fmt.Errorf("variation: negative sample count %d", o.Samples)
	}
	if o.MinSamples < 0 {
		return fmt.Errorf("%w %d", ErrNegativeMinSamples, o.MinSamples)
	}
	if o.Batch < 0 {
		return fmt.Errorf("%w %d", ErrNegativeBatch, o.Batch)
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

// Estimate is the result of one estimation run.
type Estimate struct {
	// FailProb is the estimated failure probability; Yield is its
	// complement.
	FailProb, Yield float64
	// StdErr is the standard error of FailProb (the square root of
	// the estimator's variance).
	StdErr float64
	// Samples is the number of samples actually evaluated (the
	// stopping rule may end the run before Options.Samples).
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
func stopRule(o Options, shifted bool, n int, mean, m2 float64) bool {
	if n < o.MinSamples || n < 2 || (o.RelErr <= 0 && o.AbsErr <= 0) {
		return false
	}
	return errStop(o, n, mean, math.Sqrt(m2/float64(n-1)/float64(n)), shifted)
}

// errStop is the tail every stopping rule shares once its own
// preconditions hold: the relative and absolute rules on an estimate p
// with standard error se when failures were observed, the rule-of-three
// escape (unshifted runs only) when none were.
func errStop(o Options, n int, p, se float64, shifted bool) bool {
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
// sample i: at every batch boundary and at the end of the budget.
func checkpoint(o Options, i int) bool {
	return (i+1)%o.Batch == 0 || i+1 == o.Samples
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
func (f *fold) stop(o Options) bool {
	if !f.qmc {
		return stopRule(o, f.shifted, f.n, f.mean, f.m2)
	}
	p, se, reps := qmcStats(f)
	if f.n < o.MinSamples || reps < 2 || (o.RelErr <= 0 && o.AbsErr <= 0) {
		return false
	}
	return errStop(o, f.n, p, se, false)
}

// retire reports, at the end of a step whose last sample is last,
// whether the candidate stops sampling: its stopping rule fires at the
// checkpoint, or, with budget left, a Welford fold's contributions so
// far sum past maxFail (rejected). maxFail is +Inf outside sizing; see
// rejectBound.
func (f *fold) retire(o Options, last int, maxFail float64) (stop, rejected bool) {
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
