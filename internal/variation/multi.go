package variation

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/estimator"
	"repro/internal/faultinject"
	"repro/internal/model"
	"repro/internal/pool"
	"repro/internal/tech"
)

// This file is the cross-candidate sampling kernel. A sizing sweep
// evaluates K candidate implementations of one wire — repeater kind,
// size, count and input slew — against the same variation space, and
// almost all of the per-sample cost — the normal draw, the technology
// perturbation, the closed-form coefficient rescale, the wire
// per-meter extraction — depends only on the draw, not on the
// candidate. The kernel therefore does that work once per sample and
// scores every still-active candidate against it (common random
// numbers, which is also what makes the candidates statistically
// comparable).
//
// One driver serves the mc/isle/qmc/ais rungs: it evaluates a
// contiguous range of global sample indices through the lane kernel
// (lane.go), its only evaluation path, and hands each batch's
// contribution rows to a callback. A sample whose perturbed width fails
// validation fails the step with the lane's error. The local run
// (driver.runShared) folds the rows per candidate and retires a
// candidate once its stopping rule fires, at the fixed checkpoints of
// estimator.go; a coordinator shard (CollectPartialCtx, partial.go)
// keeps the sparse failures for MergePartials; an AIS run (ais.go)
// drives one range per stage and keeps each sample's delay. An ISLE
// run centres each candidate's draws on its own shift (isleShift): the
// target crossing found by the first stage of the worst-case-distance
// search, estimator.FirstCrossing, which FindWCD then refines for the
// pre-filter. The local run and the shard fold through the one fold
// type, consulting the stopping rule at the same checkpoints, so each
// candidate's estimate is bit-identical to a standalone
// EstimateLinkYieldCtx run with the same options and to a merge of its
// shards. The passes of one sizing search also share a sample bank
// (sampleBank, lane.go), so each of its samples is drawn, perturbed and
// extracted once per search.

// MultiScenario binds K candidate implementations (specs) of one wire
// to a shared variation space and delay target.
type MultiScenario struct {
	// Base is the nominal technology the candidates were designed in.
	Base *tech.Technology
	// Coeffs are the calibrated coefficients at Base.
	Coeffs *model.Coefficients
	// Space is the variation model.
	Space Space
	// Specs are the candidate lines under estimation, all on one
	// Segment; each has its own repeater kind, size, count and input
	// slew. The candidates share each sample's wire extraction.
	Specs []model.LineSpec
	// Target is the delay constraint in seconds: a sample of a
	// candidate fails when its delay exceeds the target.
	Target float64
}

// Validate rejects an unevaluable multi-scenario.
func (ms *MultiScenario) Validate() error {
	if ms.Base == nil || ms.Coeffs == nil {
		return fmt.Errorf("variation: scenario needs a technology and coefficients")
	}
	if ms.Target <= 0 {
		return fmt.Errorf("variation: non-positive delay target %g", ms.Target)
	}
	if err := ms.Space.Validate(); err != nil {
		return err
	}
	if len(ms.Specs) == 0 {
		return fmt.Errorf("variation: multi-scenario has no candidate specs")
	}
	for c := range ms.Specs {
		if err := ms.Specs[c].Validate(); err != nil {
			return fmt.Errorf("variation: candidate %d: %w", c, err)
		}
		if ms.Specs[c].Segment != ms.Specs[0].Segment {
			return fmt.Errorf("variation: candidate %d is not on candidate 0's segment", c)
		}
	}
	return nil
}

// single returns candidate c alone as a one-candidate multi-scenario.
func (ms *MultiScenario) single(c int) *MultiScenario {
	return &MultiScenario{Base: ms.Base, Coeffs: ms.Coeffs, Space: ms.Space, Specs: ms.Specs[c : c+1], Target: ms.Target}
}

// scenario returns candidate c's single-candidate view.
func (ms *MultiScenario) scenario(c int) *LinkScenario {
	return &LinkScenario{
		Base:   ms.Base,
		Coeffs: ms.Coeffs,
		Space:  ms.Space,
		Spec:   ms.Specs[c],
		Target: ms.Target,
	}
}

// EstimateYieldsSharedCtx estimates the timing yield of every
// candidate spec in one pass over a shared sample stream. Element c of
// the result is bit-identical to what EstimateLinkYieldCtx would
// return for candidate c alone with the same options (including the
// per-candidate stopping rule: a candidate whose estimate converges
// stops accumulating while the others keep sampling), for every
// Workers value. The steady sampling path performs no heap allocation:
// all per-sample state lives in per-worker scratch sized once up
// front.
//
// This is also the estimator dispatch point: the options' Estimator /
// TargetSigma hints resolve to one rung of the ladder (see
// internal/estimator), and a ≥3σ auto-routed query first runs the
// worst-case-distance pre-filter — candidates the analytic bound
// certifies either way are answered without sampling, and only the
// inconclusive remainder pays for draws.
func EstimateYieldsSharedCtx(ctx context.Context, ms *MultiScenario, o YieldOptions) ([]Estimate, error) {
	return estimateYieldsCtx(ctx, ms, o, plainPass)
}

// sizingPass is what a sizing search lends each of its sampling passes
// on the directly dispatched mc/isle/qmc rungs: a rejection bound — a
// candidate whose contributions sum past maxFail stops sampling (see
// fold.retire), so its estimate is cut short — and the search's sample
// bank, which the lane kernel reads and fills (see sampleBank). Every
// other run uses plainPass.
type sizingPass struct {
	maxFail float64
	bank    *sampleBank
}

var plainPass = sizingPass{maxFail: math.Inf(1)}

// estimateYieldsCtx is EstimateYieldsSharedCtx for one pass of a
// sizing search; the sizing walk is its one caller with a bound or a
// bank.
func estimateYieldsCtx(ctx context.Context, ms *MultiScenario, o YieldOptions, sp sizingPass) ([]Estimate, error) {
	if err := ms.Validate(); err != nil {
		return nil, err
	}
	o = o.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	kind, err := o.resolveKind()
	if err != nil {
		return nil, err
	}
	if kind == estimator.WCD {
		return wcdEstimatesCtx(ctx, ms, o.TargetSigma)
	}
	if o.Estimator == estimator.Auto && o.TargetSigma >= wcdPrefilterSigma {
		return cascadeCtx(ctx, ms, o, kind)
	}
	return sampleEstimatesCtx(ctx, ms, o, kind, sp)
}

// sampleEstimatesCtx runs the resolved sampling rung over all
// candidates; sp applies to the mc/isle/qmc runs, not to AIS.
func sampleEstimatesCtx(ctx context.Context, ms *MultiScenario, o YieldOptions, kind estimator.Kind, sp sizingPass) ([]Estimate, error) {
	if kind == estimator.AIS {
		return runAISAllCtx(ctx, ms, o)
	}
	d, err := newDriver(ctx, ms, o, kind)
	if err != nil {
		return nil, err
	}
	defer d.close()
	return d.runShared(ctx, sp)
}

// contribPool recycles the driver's contribution rows across runs: a
// server answering successive queries, or a coordinator worker serving
// successive shard waves, reuses one buffer instead of allocating a
// batch-sized slice per run (the laneScratch pool does the same for the
// per-worker scratch).
var contribPool sync.Pool

func getContrib(n int) []float64 {
	if v := contribPool.Get(); v != nil {
		if b := v.(*[]float64); cap(*b) >= n {
			return (*b)[:n]
		}
	}
	return make([]float64, n)
}

func putContrib(b []float64) {
	contribPool.Put(&b)
}

// driver is the sampling driver of the mc/isle/qmc/ais rungs. It is
// built once per run, which settles every per-run decision: the ISLE
// shifts, the QMC Sobol scrambles, the AIS state, the compiled
// lane kernel and the per-worker lane scratch. It then evaluates any
// contiguous range of global sample indices, so the local kernel, a
// coordinator shard and an AIS stage are the same evaluation over
// different ranges.
type driver struct {
	o     YieldOptions
	lk    *laneKernel
	lsc   []*laneScratch
	chunk int
	// rows holds one step's contributions, row k for sample base+k
	// with one entry per candidate (in AIS mode, the sample's delay).
	rows []float64
	// active marks candidates still sampling. Callbacks retire
	// candidates between steps, never during one, so worker reads race
	// with nothing.
	active []bool
	// base and n are the current step's first sample and size, and lane
	// (d.evalLane, bound once per run) its pool item.
	base, n int
	lane    func(l, worker int) error
}

// newDriver builds the driver of one run on rung kind, searching each
// candidate's ISLE shift (isleShift) on the isle rung.
func newDriver(ctx context.Context, ms *MultiScenario, o YieldOptions, kind estimator.Kind) (*driver, error) {
	var shifts [][]float64
	if kind == estimator.ISLE {
		shifts = make([][]float64, len(ms.Specs))
		for c := range shifts {
			var err error
			if shifts[c], err = isleShift(ctx, ms.scenario(c)); err != nil {
				return nil, err
			}
		}
	}
	return buildDriver(ms, o, kind, shifts), nil
}

// buildDriver builds the driver of one run on rung kind from the
// candidates' ISLE shifts (nil off the isle rung): the QMC scrambles
// and the shifts compiled into the lane kernel.
func buildDriver(ms *MultiScenario, o YieldOptions, kind estimator.Kind, shifts [][]float64) *driver {
	var qshifts [][]uint64
	if kind == estimator.QMC {
		qshifts = make([][]uint64, qmcReplicates)
		for r := range qshifts {
			qshifts[r] = estimator.SobolShift(o.Seed, uint64(r), Dims)
		}
	}
	d := kernelDriver(newLaneKernel(ms, o, shifts, qshifts), o)
	if kind == estimator.AIS {
		// An AIS driver serves one candidate: ms is a single() view.
		d.lk.ais = getAISState(o.Samples)
	}
	return d
}

// kernelDriver builds a driver around a compiled lane kernel.
func kernelDriver(lk *laneKernel, o YieldOptions) *driver {
	K := len(lk.cands)
	d := &driver{
		o:      o,
		lk:     lk,
		chunk:  laneChunk(pool.Workers(o.Workers, Batch)),
		rows:   getContrib(Batch * K),
		active: make([]bool, K),
	}
	for c := range d.active {
		d.active[c] = true
	}
	d.lane = d.evalLane
	d.lsc = make([]*laneScratch, pool.Workers(o.Workers, (Batch+d.chunk-1)/d.chunk))
	for w := range d.lsc {
		d.lsc[w] = getLaneScratch()
	}
	return d
}

// close returns the driver's pooled buffers.
func (d *driver) close() {
	for _, s := range d.lsc {
		putLaneScratch(s)
	}
	putContrib(d.rows)
	if d.lk.ais != nil {
		aisStatePool.Put(d.lk.ais)
	}
}

// run evaluates global sample indices [start, start+count) in
// Batch-sized steps and hands each step's rows to fn, in index order.
// It ends early once fn has retired every candidate.
func (d *driver) run(ctx context.Context, start, count int, fn func(base, n int, rows []float64)) error {
	for done := 0; done < count; {
		left := 0
		for _, a := range d.active {
			if a {
				left++
			}
		}
		if left == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Fault point at the batch boundary: robustness tests inject
		// errors here to prove a failing estimator surfaces promptly
		// instead of burning the remaining budget.
		if err := faultinject.Hit("variation.batch"); err != nil {
			return err
		}
		n := min(Batch, count-done)
		d.base, d.n = start+done, n
		// Lane-granular dispatch: each pool item is one lane of up to
		// chunk samples, amortizing the per-item handoff. Errors still
		// resolve to the lowest failing sample: lanes cover ascending
		// index ranges and the kernel reports a lane's lowest-index
		// error.
		if err := pool.ForEachWorkerCtx(ctx, d.o.Workers, (n+d.chunk-1)/d.chunk, d.lane); err != nil {
			return err
		}
		if b := d.lk.bank; b != nil {
			b.advance(d.base + n)
		}
		metSamples.Add(int64(n) * int64(left))
		fn(d.base, n, d.rows[:n*len(d.active)])
		done += n
	}
	return nil
}

// evalLane evaluates lane l of the current step on worker's scratch.
func (d *driver) evalLane(l, worker int) error {
	K := len(d.active)
	off := l * d.chunk
	m := min(d.chunk, d.n-off)
	return d.lk.eval(d.lsc[worker], d.base+off, m, d.rows[off*K:(off+m)*K], K, d.active)
}

// runShared is the local run of the mc/isle/qmc rungs: the driver
// over [0, Samples), each candidate's contributions folded in index
// order and the candidate retired once its stopping rule fires at a
// checkpoint — the fold MergePartials replays over shards — or, at a
// step end, once its contributions sum past sp.maxFail.
func (d *driver) runShared(ctx context.Context, sp sizingPass) ([]Estimate, error) {
	d.lk.useBank(sp.bank)
	folds := make([]fold, len(d.active))
	for c := range folds {
		folds[c] = fold{qmc: d.lk.qmc, shifted: d.lk.shiftedC[c]}
		switch {
		case folds[c].qmc:
			metRunsQMC.Inc()
		case folds[c].shifted:
			metRunsShifted.Inc()
		default:
			metRunsPlain.Inc()
		}
	}
	K := len(folds)
	// Steps run Batch samples from 0 (the last one clamped to the
	// budget), so a step's last sample is its one checkpoint.
	err := d.run(ctx, 0, d.o.Samples, func(base, n int, rows []float64) {
		last := base + n - 1
		for c := range folds {
			if !d.active[c] {
				continue
			}
			folds[c].add(base, n, rows[c:], K)
			stop, rejected := folds[c].retire(d.o, last, sp.maxFail)
			if rejected {
				metSizingRejected.Inc()
			}
			d.active[c] = !stop
		}
	})
	if err != nil {
		return nil, err
	}
	ests := make([]Estimate, K)
	for c := range folds {
		ests[c] = folds[c].estimate()
	}
	return ests, nil
}
