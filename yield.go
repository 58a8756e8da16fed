package predint

import (
	"context"
	"errors"
	"fmt"
	"math"

	"repro/internal/buffering"
	"repro/internal/estimator"
	"repro/internal/liberty"
	"repro/internal/model"
	"repro/internal/variation"
)

// This file is the facade over the process-variation engine
// (internal/variation): timing-yield estimation for a designed link on
// the estimator ladder (mc, qmc, isle, ais, wcd), and yield-aware
// buffering that resizes the repeaters until a yield target holds.
// Every entry takes a context. The sampling entries are methods of
// Surfaced: a zero Surfaced{} is the uncached path, with
// Surfaced{Cache: surface.New(...)} every sampled run refreshes that
// surface, which the probe entries (yieldsurface.go) answer from, and
// with a bound PlanMemo (planmemo.go) the link designs come from it.
// Surfaced.LinkYieldNominalCtx is the graceful-degradation path the
// serving layer (cmd/predintd) falls back to when a cost budget or
// queue pressure won't allow sampling.

// Defaults applied to unset (nil) optional YieldRequest fields.
const (
	// DefaultYieldSamples is the Monte Carlo sample budget.
	DefaultYieldSamples = 4096
)

// Sentinel validation errors of the yield facade. Every rejection of a
// malformed delay/yield target, sigma level, or estimator name wraps
// the matching sentinel, so callers (and the serving layer) can
// classify failures with errors.Is instead of matching message text.
var (
	// ErrInvalidTarget rejects a delay target (TargetPS) or yield
	// target (YieldTarget) that is NaN, infinite, or outside its
	// documented range.
	ErrInvalidTarget = errors.New("predint: invalid target")
	// ErrInvalidSigma rejects a TargetSigma (or -sigma flag) that is
	// negative, NaN, or infinite.
	ErrInvalidSigma = errors.New("predint: invalid sigma")
	// ErrUnknownEstimator rejects an Estimator name outside the
	// registered ladder (see internal/estimator).
	ErrUnknownEstimator = errors.New("predint: unknown estimator")
)

// YieldRequest describes a timing-yield estimation for a buffered
// link. As with LinkRequest, optional numeric fields are pointers:
// nil selects the documented default while explicit values — including
// zeros — are honored or rejected, never silently rewritten.
type YieldRequest struct {
	// Tech is a built-in technology name (required).
	Tech string `json:"tech"`
	// LengthMM is the routed link length in millimeters (required).
	LengthMM float64 `json:"length_mm"`
	// Style selects the design style; default SWSS.
	Style Style `json:"style,omitempty"`
	// PowerWeight and InputSlewPS configure the underlying buffering
	// exactly as in LinkRequest.
	PowerWeight *float64 `json:"power_weight,omitempty"`
	InputSlewPS *float64 `json:"input_slew_ps,omitempty"`
	// TargetPS is the delay constraint in picoseconds; nil means the
	// node's clock period (1/Clock). An explicit non-positive target
	// is an error.
	TargetPS *float64 `json:"target_ps,omitempty"`
	// Samples is the Monte Carlo budget; nil means
	// DefaultYieldSamples (4096). An explicit non-positive count is
	// an error.
	Samples *int `json:"samples,omitempty"`
	// RelErr, when set and positive, stops sampling early once the
	// estimator's relative standard error reaches it; nil (or an
	// explicit zero) runs the full budget. Negative values are an
	// error. A run with zero observed failures stops once the
	// rule-of-three bound 3/n reaches the tolerance (see
	// variation.YieldOptions.RelErr).
	RelErr *float64 `json:"rel_err,omitempty"`
	// AbsErr, when set and positive, stops sampling early once the
	// estimator's absolute standard error reaches it; nil (or an
	// explicit zero) disables the rule. Negative values are an error.
	AbsErr *float64 `json:"abs_err,omitempty"`
	// Seed is the base PRNG seed. Results are bit-identical for a
	// fixed seed regardless of Workers.
	Seed uint64 `json:"seed,omitempty"`
	// Workers bounds the sampling goroutines: 0 means every core, 1
	// forces serial evaluation. The estimate is identical either way.
	Workers int `json:"workers,omitempty"`
	// Estimator pins a rung of the high-sigma estimator ladder by
	// name: "mc", "qmc", "isle" (the ISLE-style importance sampler:
	// shifted sampling distribution plus likelihood-ratio weights,
	// for failure probabilities ≲ 1e-2; it falls back to plain Monte
	// Carlo when shifting cannot help), "ais", or "wcd" (the analytic
	// worst-case-distance bound — no sampling). Empty or "auto" lets
	// the engine route from TargetSigma (or fall back to plain Monte
	// Carlo). Unknown names are rejected with ErrUnknownEstimator.
	Estimator string `json:"estimator,omitempty"`
	// TargetSigma declares the sigma level the query must resolve
	// (e.g. 6 for a 6σ sign-off): the router picks the cheapest
	// estimator whose regime covers Φ(−TargetSigma), and auto-routed
	// deep-sigma queries (≥3σ) run the worst-case-distance pre-filter,
	// answering analytically when its certificate is conclusive.
	// nil means no declared level; explicit negative, NaN, or infinite
	// values are rejected with ErrInvalidSigma.
	TargetSigma *float64 `json:"target_sigma,omitempty"`
	// SigmaScale multiplies every sigma of the default variation
	// space; nil means 1. An explicit Float(0) is honored: it
	// disables variation, collapsing yield to a 0/1 step around the
	// target. Negative values are an error.
	SigmaScale *float64 `json:"sigma_scale,omitempty"`
	// YieldTarget, when set, turns the request into yield-aware
	// buffering: the repeater (size, count) is re-selected as the
	// cheapest design (under the nominal weighted objective) whose
	// estimated yield reaches the target. Must lie in (0,1).
	YieldTarget *float64 `json:"yield_target,omitempty"`
	// NoSurface bypasses the yield-response-surface cache entirely —
	// neither consulted nor refreshed — forcing the full sampling path
	// even through a Surfaced handle with a bound cache. A bound plan
	// memo still applies: it only skips designing the link again and
	// never changes an answer.
	NoSurface bool `json:"no_surface,omitempty"`
}

// YieldResult reports a timing-yield estimation.
type YieldResult struct {
	// Repeaters and RepeaterSize describe the evaluated buffering
	// solution (resized when YieldTarget forced a change).
	Repeaters    int     `json:"repeaters"`
	RepeaterSize float64 `json:"repeater_size"`
	// NominalDelay is the design's delay at the nominal process
	// corner (s); Target is the constraint it was scored against (s).
	NominalDelay float64 `json:"nominal_delay_s"`
	Target       float64 `json:"target_s"`
	// Yield is the estimated probability of meeting Target; FailProb
	// its complement.
	Yield    float64 `json:"yield"`
	FailProb float64 `json:"fail_prob"`
	// StdErr is the standard error of FailProb and CI95 the
	// half-width of its 95% confidence interval.
	StdErr float64 `json:"std_err"`
	CI95   float64 `json:"ci95"`
	// Samples is the number of Monte Carlo samples evaluated.
	Samples int `json:"samples"`
	// ImportanceSampled reports whether a shifted estimator was in
	// effect (false when the isle rung was requested but the engine
	// fell back to plain Monte Carlo).
	ImportanceSampled bool `json:"importance_sampled,omitempty"`
	// Estimator names the ladder rung that produced the estimate
	// ("mc", "qmc", "isle", "ais", "wcd") — the routed choice for
	// auto requests, so a 6σ query can confirm it was actually served
	// by the deep-tail machinery. Empty on degraded (nominal) results.
	Estimator string `json:"estimator,omitempty"`
	// VarianceReduction is the estimated variance advantage over a
	// plain Monte Carlo estimator at the same sample count (≈1 for
	// plain Monte Carlo, >1 when importance sampling pays off).
	VarianceReduction float64 `json:"variance_reduction,omitempty"`
	// Resized reports whether YieldTarget moved the design away from
	// the nominal weighted-objective solution.
	Resized bool `json:"resized,omitempty"`
	// Degraded reports that this result came from LinkYieldNominalCtx —
	// the closed-form nominal-corner evaluation (model.ScaledFor with
	// no perturbation), not a Monte Carlo estimation. Yield is then a
	// 0/1 step around the target.
	Degraded bool `json:"degraded,omitempty"`
	// FailProbBound is only set on degraded results: the rule-of-three
	// 95% upper bound on the failure probability given the evaluations
	// actually performed, min(1, 3/n). With only the single nominal
	// evaluation it is 1 — deliberately vacuous, telling the caller
	// exactly how much statistical weight the degraded answer carries.
	FailProbBound float64 `json:"fail_prob_bound,omitempty"`
	// Source names the tier that produced the answer: SourceMC (full
	// Monte Carlo), SourceNominal (degraded closed form), or
	// SourceSurface (warm cache interpolation).
	Source string `json:"source"`
}

// yieldPlan is a validated, derived YieldRequest: its link class
// resolved, every other optional field resolved, and the engine option
// structs built. Both the full Monte Carlo path and the degraded
// nominal path start from here, so the two can never drift in how they
// interpret a request.
type yieldPlan struct {
	linkClass
	bufOpts buffering.Options
	space   variation.Space
	mc      variation.YieldOptions
	target  float64
	sigma   float64 // the SigmaScale that scaled space
	yt      *float64
}

// plan validates the request and derives the evaluation inputs.
func (req YieldRequest) plan() (*yieldPlan, error) {
	c, err := resolveClass(req.Tech, req.LengthMM, req.Style, req.PowerWeight, req.InputSlewPS)
	if err != nil {
		return nil, err
	}
	target := 1 / c.tc.Clock
	if req.TargetPS != nil {
		// IsInf matters: +Inf passes a bare <= 0 check and would turn
		// the estimation into a vacuous always-passes query.
		if math.IsNaN(*req.TargetPS) || math.IsInf(*req.TargetPS, 0) || *req.TargetPS <= 0 {
			return nil, fmt.Errorf("%w: delay target %g ps is not a positive finite value", ErrInvalidTarget, *req.TargetPS)
		}
		target = *req.TargetPS * 1e-12
	}
	samples := DefaultYieldSamples
	if req.Samples != nil {
		samples = *req.Samples
		if samples <= 0 {
			return nil, fmt.Errorf("predint: non-positive sample count %d", samples)
		}
	}
	relErr := 0.0
	if req.RelErr != nil {
		relErr = *req.RelErr
		if math.IsNaN(relErr) || relErr < 0 {
			return nil, fmt.Errorf("predint: negative relative-error target %g", relErr)
		}
	}
	absErr := 0.0
	if req.AbsErr != nil {
		absErr = *req.AbsErr
		if math.IsNaN(absErr) || absErr < 0 {
			return nil, fmt.Errorf("predint: negative absolute-error target %g", absErr)
		}
	}
	sigma := 1.0
	if req.SigmaScale != nil {
		sigma = *req.SigmaScale
		if math.IsNaN(sigma) || math.IsInf(sigma, 0) || sigma < 0 {
			return nil, fmt.Errorf("%w: sigma scale %g is not a non-negative finite value", ErrInvalidSigma, sigma)
		}
	}
	if req.YieldTarget != nil {
		yt := *req.YieldTarget
		if math.IsNaN(yt) || yt <= 0 || yt >= 1 {
			return nil, fmt.Errorf("%w: yield target %g outside (0,1)", ErrInvalidTarget, yt)
		}
	}
	kind, err := estimator.Parse(req.Estimator)
	if err != nil {
		return nil, fmt.Errorf("%w: %q (known: auto, mc, qmc, isle, ais, wcd)", ErrUnknownEstimator, req.Estimator)
	}
	targetSigma := 0.0
	if req.TargetSigma != nil {
		targetSigma = *req.TargetSigma
		if math.IsNaN(targetSigma) || math.IsInf(targetSigma, 0) || targetSigma < 0 {
			return nil, fmt.Errorf("%w: target sigma %g is not a non-negative finite value", ErrInvalidSigma, targetSigma)
		}
	}

	return &yieldPlan{
		linkClass: c,
		bufOpts:   c.options(DefaultActivityFactor),
		space:     variation.DefaultSpace().Scaled(sigma),
		mc: variation.YieldOptions{
			Samples:     samples,
			RelErr:      relErr,
			AbsErr:      absErr,
			Workers:     req.Workers,
			Seed:        req.Seed,
			Estimator:   kind,
			TargetSigma: targetSigma,
		},
		target: target,
		sigma:  sigma,
		yt:     req.YieldTarget,
	}, nil
}

// line is the buffered-line spec of design des on the plan's link.
func (p *yieldPlan) line(des buffering.Design) model.LineSpec {
	return model.LineSpec{Kind: des.Kind, Size: des.Size, N: des.N, Segment: p.seg, InputSlew: p.slew}
}

// scenario binds a buffered line to the plan's variation space.
func (p *yieldPlan) scenario(spec model.LineSpec) *variation.LinkScenario {
	return &variation.LinkScenario{
		Base:   p.tc,
		Coeffs: p.coeffs,
		Space:  p.space,
		Spec:   spec,
		Target: p.target,
	}
}

// result assembles the served answer for design des (des.Delay is its
// nominal delay) from a sampled estimate (SourceMC) or a surface recall
// (SourceSurface). Every sampling and surface path builds its
// YieldResult here, so a local, sharded, batch or warm answer carries
// the same fields.
func (p *yieldPlan) result(des buffering.Design, est variation.Estimate, source string) YieldResult {
	return YieldResult{
		Repeaters:         des.N,
		RepeaterSize:      des.Size,
		NominalDelay:      des.Delay,
		Target:            p.target,
		Yield:             est.Yield,
		FailProb:          est.FailProb,
		StdErr:            est.StdErr,
		CI95:              est.CI95(),
		Samples:           est.Samples,
		ImportanceSampled: est.Shifted,
		Estimator:         string(est.Estimator),
		VarianceReduction: est.VarianceReduction,
		Source:            source,
	}
}

// nominalResult is the degraded answer for one buffered line: a single
// closed-form evaluation at the nominal process corner (model.ScaledFor
// against an unperturbed technology). Yield is a 0/1 step around the
// target and FailProbBound the rule-of-three bound min(1, 3/n) at
// n = 1 — vacuous, and therefore honest.
func (p *yieldPlan) nominalResult(spec model.LineSpec) (YieldResult, error) {
	nominal, err := p.scenario(spec).NominalDelay()
	if err != nil {
		return YieldResult{}, err
	}
	fail := 0.0
	if nominal > p.target {
		fail = 1
	}
	return YieldResult{
		Repeaters:     spec.N,
		RepeaterSize:  spec.Size,
		NominalDelay:  nominal,
		Target:        p.target,
		Yield:         1 - fail,
		FailProb:      fail,
		Samples:       1,
		Degraded:      true,
		FailProbBound: 1,
		Source:        SourceNominal,
	}, nil
}

// LinkYieldCtx estimates the timing yield of a buffered link under
// process variation: the link is designed exactly as DesignLink would
// (same objective, same models), then evaluated against the delay
// target over a population of perturbed technologies. With a
// YieldTarget the repeaters are resized until the target holds.
//
// Determinism guarantee: for a fixed request (including Seed), the
// result is bit-identical for every Workers value — per-sample PRNG
// streams are keyed by (seed ⊕ sample index) and accumulated in index
// order, the same contract NoC synthesis keeps.
//
// The sampling (and, with YieldTarget, the candidate search driving
// it) checks ctx at batch boundaries, so a large-budget estimation can
// be interrupted by a signal or bounded by a deadline — it returns
// ctx.Err() promptly and discards the partial accumulation. A run that
// completes under a live context is bit-identical to one under
// context.Background().
//
// It always samples. With a bound cache the completed run refreshes
// the warm surface, but reading it is LinkYieldSurfaceCtx's job: a
// caller that wants a warm answer probes first, so a served miss
// consults the surface once. With a bound plan memo the link's nominal
// design and, for sizing, its reachable candidates come from the memo.
// Either way the answer is bit-identical to the uncached path.
func (sf Surfaced) LinkYieldCtx(ctx context.Context, req YieldRequest) (YieldResult, error) {
	p, err := req.plan()
	if err != nil {
		return YieldResult{}, err
	}

	var des buffering.Design
	var est variation.Estimate
	resized := false
	if p.yt != nil {
		sized, err := sf.Plans.size(ctx, p)
		if err != nil {
			return YieldResult{}, err
		}
		des, est, resized = sized.Design, sized.Estimate, sized.Resized
	} else {
		des, err = sf.Plans.nominal(p)
		if err != nil {
			return YieldResult{}, err
		}
		est, err = variation.EstimateLinkYieldCtx(ctx, p.scenario(p.line(des)), p.mc)
		if err != nil {
			return YieldResult{}, err
		}
	}

	// Refresh the surface from the completed run. Only the plain
	// estimation path memoizes the design: it evaluated the nominal
	// weighted-objective solution, which is what a later warm query
	// asks about.
	if sf.Cache != nil && !req.NoSurface {
		p.surfaceRecord(sf.Cache, des, est, p.yt == nil)
	}

	res := p.result(des, est, SourceMC)
	res.Resized = resized
	return res, nil
}

// LinkYieldNominalCtx is the graceful-degradation fallback for
// Surfaced.LinkYieldCtx: it validates the request identically, designs
// the link identically (from the bound plan memo's class entry, if
// any), but replaces the estimation with a single closed-form
// evaluation at the nominal process corner — microseconds, not
// milliseconds. The result is marked Degraded, its Yield collapses to a
// 0/1 step around the target, and FailProbBound carries the (vacuous,
// and therefore honest) rule-of-three bound for the single evaluation
// performed. A YieldTarget is validated but not acted on — resizing
// needs sampling — so Resized is always false. Only an up-front ctx
// check applies.
//
// cmd/predintd serves this path when a request's cost budget or the
// admission-queue pressure won't allow sampling.
func (sf Surfaced) LinkYieldNominalCtx(ctx context.Context, req YieldRequest) (YieldResult, error) {
	if err := ctx.Err(); err != nil {
		return YieldResult{}, err
	}
	p, err := req.plan()
	if err != nil {
		return YieldResult{}, err
	}
	des, err := sf.Plans.nominal(p)
	if err != nil {
		return YieldResult{}, err
	}
	return p.nominalResult(p.line(des))
}

// LinkYieldNominalCtx is Surfaced{}.LinkYieldNominalCtx: the degraded
// answer with a fresh buffering search.
func LinkYieldNominalCtx(ctx context.Context, req YieldRequest) (YieldResult, error) {
	return Surfaced{}.LinkYieldNominalCtx(ctx, req)
}

// YieldCandidate names one explicit buffering solution of a batch
// yield request: an inverter repeater of the given drive strength,
// repeated the given number of times along the line.
type YieldCandidate struct {
	// RepeaterSize is the repeater drive strength in unit-inverter
	// multiples (required, positive).
	RepeaterSize float64 `json:"repeater_size"`
	// Repeaters is the repeater count (required, 1 to 64, the
	// buffering search's own bound).
	Repeaters int `json:"repeaters"`
}

// YieldBatchRequest scores K explicit candidate buffering solutions of
// one link against a shared delay target. All candidates are evaluated
// on common random numbers — the same per-sample technology
// perturbation serves every candidate — so the per-candidate estimates
// are directly comparable (and each is bit-identical to what a
// standalone LinkYieldCtx of that candidate would report), at a
// fraction of K independent estimations' cost.
//
// The embedded YieldRequest supplies the link geometry, target, and
// sampling budget; its YieldTarget must be nil (the candidates are
// explicit — there is nothing to resize).
type YieldBatchRequest struct {
	YieldRequest
	// Candidates lists the buffering solutions to score (required,
	// non-empty).
	Candidates []YieldCandidate `json:"candidates"`
}

// YieldBatchResult reports one batch estimation.
type YieldBatchResult struct {
	// Target is the shared delay constraint (s).
	Target float64 `json:"target_s"`
	// Results holds one YieldResult per candidate, in request order.
	Results []YieldResult `json:"results"`
}

// batchSpecs validates the candidates and assembles their line specs
// plus nominal (unperturbed-model) delays.
func (p *yieldPlan) batchSpecs(cands []YieldCandidate) ([]model.LineSpec, []float64, error) {
	specs := make([]model.LineSpec, len(cands))
	noms := make([]float64, len(cands))
	for c, cand := range cands {
		if math.IsNaN(cand.RepeaterSize) || cand.RepeaterSize <= 0 {
			return nil, nil, fmt.Errorf("predint: candidate %d: non-positive repeater size %g", c, cand.RepeaterSize)
		}
		if cand.Repeaters < 1 {
			return nil, nil, fmt.Errorf("predint: candidate %d: need at least one repeater, got %d", c, cand.Repeaters)
		}
		// Evaluating a line walks every stage, so the count is bounded
		// like every design the buffering search considers.
		if cand.Repeaters > buffering.MaxN {
			return nil, nil, fmt.Errorf("predint: candidate %d: %d repeaters over the bound of %d (buffering.MaxN)", c, cand.Repeaters, buffering.MaxN)
		}
		specs[c] = p.line(buffering.Design{Kind: liberty.Inverter, Size: cand.RepeaterSize, N: cand.Repeaters})
		t, err := p.coeffs.LineDelay(specs[c])
		if err != nil {
			return nil, nil, fmt.Errorf("predint: candidate %d: %w", c, err)
		}
		noms[c] = t.Delay
	}
	return specs, noms, nil
}

// validateBatch applies the batch-specific request rules.
func (req YieldBatchRequest) validateBatch() error {
	if req.YieldTarget != nil {
		return fmt.Errorf("predint: batch yield does not accept a yield target — the candidates are explicit")
	}
	if len(req.Candidates) == 0 {
		return fmt.Errorf("predint: batch yield needs at least one candidate")
	}
	return nil
}

// LinkYieldBatchCtx estimates the timing yield of every candidate in
// one shared-sample pass; see YieldBatchRequest. The determinism
// guarantee and the cancellation contract of LinkYieldCtx apply per
// candidate. Like LinkYieldCtx it always samples and only refreshes a
// bound cache; LinkYieldBatchSurfaceCtx is the warm read.
func (sf Surfaced) LinkYieldBatchCtx(ctx context.Context, req YieldBatchRequest) (YieldBatchResult, error) {
	if err := req.validateBatch(); err != nil {
		return YieldBatchResult{}, err
	}
	p, err := req.YieldRequest.plan()
	if err != nil {
		return YieldBatchResult{}, err
	}
	specs, noms, err := p.batchSpecs(req.Candidates)
	if err != nil {
		return YieldBatchResult{}, err
	}

	ests, err := variation.EstimateYieldsSharedCtx(ctx, &variation.MultiScenario{
		Base:   p.tc,
		Coeffs: p.coeffs,
		Space:  p.space,
		Specs:  specs,
		Target: p.target,
	}, p.mc)
	if err != nil {
		return YieldBatchResult{}, err
	}
	record := sf.Cache != nil && !req.NoSurface
	out := YieldBatchResult{Target: p.target, Results: make([]YieldResult, len(ests))}
	for c, e := range ests {
		des := buffering.Design{Size: req.Candidates[c].RepeaterSize, N: req.Candidates[c].Repeaters, Delay: noms[c]}
		if record {
			p.surfaceRecord(sf.Cache, des, e, false)
		}
		out.Results[c] = p.result(des, e, SourceMC)
	}
	return out, nil
}

// LinkYieldBatchNominalCtx is the graceful-degradation fallback for
// Surfaced.LinkYieldBatchCtx, mirroring LinkYieldNominalCtx: identical
// validation, but each candidate gets a single closed-form evaluation
// at the nominal process corner instead of an estimation. Every result
// is marked Degraded with the vacuous rule-of-three bound. Only an
// up-front ctx check applies.
func LinkYieldBatchNominalCtx(ctx context.Context, req YieldBatchRequest) (YieldBatchResult, error) {
	if err := ctx.Err(); err != nil {
		return YieldBatchResult{}, err
	}
	if err := req.validateBatch(); err != nil {
		return YieldBatchResult{}, err
	}
	p, err := req.YieldRequest.plan()
	if err != nil {
		return YieldBatchResult{}, err
	}
	specs, _, err := p.batchSpecs(req.Candidates)
	if err != nil {
		return YieldBatchResult{}, err
	}
	out := YieldBatchResult{Target: p.target, Results: make([]YieldResult, len(specs))}
	for c, spec := range specs {
		if out.Results[c], err = p.nominalResult(spec); err != nil {
			return YieldBatchResult{}, err
		}
	}
	return out, nil
}
