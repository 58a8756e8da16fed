package predint

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/buffering"
	"repro/internal/estimator"
	"repro/internal/surface"
	"repro/internal/variation"
)

// This file wires the yield-response-surface cache (internal/surface)
// into the facade: completed Monte Carlo estimations are memoized per
// link class, and later queries on the same class at nearby targets are
// answered by interpolation with a conservative confidence band instead
// of burning a fresh sample budget. The cache is strictly opt-in (a
// Surfaced handle with a bound Cache) and strictly an acceleration.
// The probe entries, LinkYieldSurfaceCtx and LinkYieldBatchSurfaceCtx,
// are the only readers: a caller probes first and, on a miss, runs the
// sampling entry, whose answer is bit-identical to what it would have
// been with no cache bound and which refreshes the surface.

// YieldResult.Source values, naming the tier that produced the answer.
const (
	// SourceMC marks a full Monte Carlo estimation.
	SourceMC = "mc"
	// SourceNominal marks the degraded closed-form nominal evaluation.
	SourceNominal = "nominal"
	// SourceSurface marks a warm answer interpolated from the
	// yield-response-surface cache.
	SourceSurface = "surface"
)

// Surfaced binds the yield facade to a replica's caches. A zero
// Surfaced{} is the uncached path: every query designs its link and
// samples, and nothing is recorded. With Cache:
// surface.New(surface.Options{}) the sampling entries refresh that
// cache and the probe entries answer from it. With Plans:
// NewPlanMemo() LinkYieldCtx and LinkYieldNominalCtx read each link
// class's nominal design and, for sizing, its reachable candidates from
// the memo, with answers bit-identical to the uncached path's. Each
// predintd replica owns its own cache and memo, so warm state is
// per-replica, not a hidden process global.
type Surfaced struct {
	Cache *surface.Cache
	Plans *PlanMemo
}

// RecordYield feeds a completed full-sampling yield result back into
// the bound cache, exactly as the local estimation path would have:
// predintd's front calls it after a coordinated estimate, so its own
// warm tier learns the answer the workers sampled. Only a fresh Monte
// Carlo estimate is a curve point, so degraded and surface results are
// refused. A resized result records its curve point without the design
// memo, as the local sizing path does; only a plain request's unresized
// result also memoizes its design as the class's nominal one. A result
// no estimation can produce is refused too, since the cache would serve
// it to later warm queries: a failure probability outside [0, 1]
// (ISLE's unbiased estimate can exceed 1, but that is no probability
// the surface can interpolate), a negative standard error, an estimator
// the ladder does not name, or a design without a positive repeater
// size, count and nominal delay.
func (sf Surfaced) RecordYield(req YieldRequest, res YieldResult) error {
	if sf.Cache == nil {
		return errors.New("predint: RecordYield needs a bound surface cache")
	}
	if res.Degraded || res.Source != SourceMC {
		return fmt.Errorf("predint: refusing to record a %q result — only full Monte Carlo estimates enter the surface", res.Source)
	}
	if !(res.FailProb >= 0 && res.FailProb <= 1) || !(res.StdErr >= 0) {
		return fmt.Errorf("predint: refusing to record failure probability %g ± %g", res.FailProb, res.StdErr)
	}
	if kind, err := estimator.Parse(res.Estimator); err != nil || kind == estimator.Auto {
		return fmt.Errorf("predint: refusing to record a result of estimator %q", res.Estimator)
	}
	if !(res.RepeaterSize > 0) || res.Repeaters <= 0 || !(res.NominalDelay > 0) {
		return fmt.Errorf("predint: refusing to record design %gx%d with nominal delay %g", res.RepeaterSize, res.Repeaters, res.NominalDelay)
	}
	p, err := req.plan()
	if err != nil {
		return err
	}
	est := variation.Estimate{
		FailProb:          res.FailProb,
		Yield:             res.Yield,
		StdErr:            res.StdErr,
		Samples:           res.Samples,
		Shifted:           res.ImportanceSampled,
		Estimator:         estimator.Kind(res.Estimator),
		VarianceReduction: res.VarianceReduction,
	}
	des := buffering.Design{Size: res.RepeaterSize, N: res.Repeaters, Delay: res.NominalDelay}
	p.surfaceRecord(sf.Cache, des, est, p.yt == nil && !res.Resized)
	return nil
}

// surfaceKey is the warm-surface key of a validated plan: its link
// class and sigma scale, everything that changes the estimated
// quantity. Seed stays out: it changes the realized draws, not the
// estimand, and the band gate already bounds a warm answer's error.
func (p *yieldPlan) surfaceKey() surface.Key {
	return surface.Key{
		Tech:        p.tc.Name,
		Style:       p.seg.Style,
		Length:      p.seg.Length,
		InputSlew:   p.slew,
		PowerWeight: p.weight,
		SigmaScale:  p.sigma,
	}
}

// surfaceTol maps the request's stopping tolerances onto the warm-answer
// acceptance band: a caller who would have stopped sampling at this
// error accepts a warm answer within the same error. Zero tolerances
// fall back to the cache's conservative defaults.
func (p *yieldPlan) surfaceTol() surface.Tolerance {
	// MinSamples carries the request's sample budget: an exact-target
	// recall that already spent it is served verbatim even when its
	// band is wider than the (default) tolerance — a fresh run could
	// only reproduce it.
	// Estimator carries an explicitly pinned rung: such a query is
	// never served a point a different rung produced. Auto (routed)
	// queries accept any stored rung — the band gate already bounds
	// the answer's error.
	return surface.Tolerance{
		RelErr:     p.mc.RelErr,
		AbsErr:     p.mc.AbsErr,
		MinSamples: p.mc.Samples,
		Estimator:  p.mc.Estimator,
	}
}

// recalled views a surface answer as an estimate. VarianceReduction
// stays zero: a recall, not one estimator run, produced the number.
func recalled(est surface.Estimate) variation.Estimate {
	return variation.Estimate{
		FailProb:  est.FailProb,
		Yield:     1 - est.FailProb,
		StdErr:    est.StdErr,
		Samples:   est.Samples,
		Shifted:   est.Shifted,
		Estimator: est.Estimator,
	}
}

// surfaceRecord refreshes the surface from a completed Monte Carlo
// estimation. memoDesign is set only when des is the nominal
// weighted-objective design (the one a later warm query would be asking
// about); yield-target-sized designs contribute their curve point but
// never the design memo.
func (p *yieldPlan) surfaceRecord(c *surface.Cache, des buffering.Design, est variation.Estimate, memoDesign bool) {
	k := p.surfaceKey()
	if memoDesign {
		c.RecordDesign(k, surface.Design{Size: des.Size, N: des.N, Delay: des.Delay})
	}
	c.Record(k, surface.DesignKey{Size: des.Size, N: des.N}, surface.Sample{
		Target:    p.target,
		FailProb:  est.FailProb,
		StdErr:    est.StdErr,
		Samples:   est.Samples,
		Shifted:   est.Shifted,
		Estimator: est.Estimator,
	})
}

// LinkYieldSurfaceCtx probes the bound cache alone: ok reports whether
// the request could be answered from the cache within tolerance, with
// no sampling fallback. The memoized nominal design skips the
// candidate sweep and the design's curve supplies the estimate; it
// misses when either memo is cold or the conservative band exceeds the
// tolerance. The serving layer uses it as the first tier of its
// degradation ladder — a warm answer is cheaper than even the
// closed-form nominal evaluation, so it is consulted before any
// cost-ceiling or queue-pressure decision. Requests with a YieldTarget
// (sizing) always miss — the chosen design depends on the target,
// which a memoized curve cannot re-decide — and so does everything
// with no cache bound or when the request opts out. Only an up-front
// ctx check applies, as a probe never samples.
func (sf Surfaced) LinkYieldSurfaceCtx(ctx context.Context, req YieldRequest) (YieldResult, bool, error) {
	if err := ctx.Err(); err != nil {
		return YieldResult{}, false, err
	}
	if sf.Cache == nil || req.NoSurface || req.YieldTarget != nil {
		return YieldResult{}, false, nil
	}
	p, err := req.plan()
	if err != nil {
		return YieldResult{}, false, err
	}
	k := p.surfaceKey()
	d, ok := sf.Cache.DesignFor(k)
	if !ok {
		return YieldResult{}, false, nil
	}
	est, ok := sf.Cache.Lookup(k, surface.DesignKey{Size: d.Size, N: d.N}, p.target, p.surfaceTol())
	if !ok {
		return YieldResult{}, false, nil
	}
	return p.result(buffering.Design{Size: d.Size, N: d.N, Delay: d.Delay}, recalled(est), SourceSurface), true, nil
}

// LinkYieldBatchSurfaceCtx is the batch probe, all-or-nothing: it
// answers only when every candidate's curve is warm at the target
// within tolerance, so a batch response never silently mixes cached
// and freshly sampled estimates (whose common-random-numbers
// comparability would differ).
func (sf Surfaced) LinkYieldBatchSurfaceCtx(ctx context.Context, req YieldBatchRequest) (YieldBatchResult, bool, error) {
	if err := ctx.Err(); err != nil {
		return YieldBatchResult{}, false, err
	}
	cache := sf.Cache
	if cache == nil || req.NoSurface {
		return YieldBatchResult{}, false, nil
	}
	if err := req.validateBatch(); err != nil {
		return YieldBatchResult{}, false, err
	}
	p, err := req.YieldRequest.plan()
	if err != nil {
		return YieldBatchResult{}, false, err
	}
	_, noms, err := p.batchSpecs(req.Candidates)
	if err != nil {
		return YieldBatchResult{}, false, err
	}
	k := p.surfaceKey()
	tol := p.surfaceTol()
	out := YieldBatchResult{Target: p.target, Results: make([]YieldResult, len(req.Candidates))}
	for c, cand := range req.Candidates {
		est, ok := cache.Lookup(k, surface.DesignKey{Size: cand.RepeaterSize, N: cand.Repeaters}, p.target, tol)
		if !ok {
			return YieldBatchResult{}, false, nil
		}
		des := buffering.Design{Size: cand.RepeaterSize, N: cand.Repeaters, Delay: noms[c]}
		out.Results[c] = p.result(des, recalled(est), SourceSurface)
	}
	return out, true, nil
}
