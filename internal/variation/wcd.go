package variation

import (
	"context"

	"repro/internal/estimator"
	"repro/internal/model"
	"repro/internal/obs"
)

// Worst-case-distance integration: the analytic bound of
// internal/estimator evaluated through the scenario delay model, and
// the WCD→sampling cascade that lets a deep-sigma query skip sampling
// entirely when the bound is conclusive.

// wcdPrefilterSigma arms the pre-filter: auto-routed queries targeting
// at least this sigma run the analytic bound before any sampling. At
// 3σ the routed estimators (QMC/ISLE/AIS) all cost thousands of model
// evaluations; the bound costs ~a hundred, so a conclusive certificate
// is a ≥10× saving and an inconclusive one a ≤10% overhead.
const wcdPrefilterSigma = 3.0

// Cascade observability: how the pre-filter resolved.
var (
	metWCDCertified    = obs.NewCounter("variation.wcd_certified")
	metWCDRefuted      = obs.NewCounter("variation.wcd_refuted")
	metWCDInconclusive = obs.NewCounter("variation.wcd_inconclusive")
)

// WCDForScenarioCtx computes the worst-case-distance bound of a
// scenario: the minimum-norm standardized draw at which the link misses
// its delay target, found by deterministic projected line search over
// the closed-form delay model (no sampling). The context is checked
// between the model evaluations.
func WCDForScenarioCtx(ctx context.Context, sc *LinkScenario) (estimator.Bound, error) {
	if err := sc.Validate(); err != nil {
		return estimator.Bound{}, err
	}
	var s Scratch
	return estimator.FindWCD(Dims, sc.Target, func(z []float64) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return sc.DelayScratch(&s, z)
	})
}

// wcdEstimate maps a bound to the Estimate shape the sampling rungs
// return: the first-order failure probability with the conservative
// band as its standard error, zero samples drawn.
func wcdEstimate(b estimator.Bound) Estimate {
	return Estimate{
		FailProb:          b.FailProb,
		Yield:             1 - b.FailProb,
		StdErr:            b.Band(0),
		VarianceReduction: 1,
		Estimator:         estimator.WCD,
	}
}

// wcdEstimatesCtx answers every candidate analytically (the explicit
// "wcd" estimator).
func wcdEstimatesCtx(ctx context.Context, ms *MultiScenario, sigma float64) ([]Estimate, error) {
	ests := make([]Estimate, len(ms.Specs))
	for c := range ms.Specs {
		b, err := WCDForScenarioCtx(ctx, ms.scenario(c))
		if err != nil {
			return nil, err
		}
		if sigma > 0 {
			countVerdict(b.Certify(sigma, 0))
		}
		ests[c] = wcdEstimate(b)
	}
	return ests, nil
}

// cascadeCtx is the WCD→sampling cascade of an auto-routed deep-sigma
// query: every candidate's analytic bound runs first, candidates the
// certificate settles (yield certified reached or certified
// unreachable at TargetSigma ± margin) are answered without sampling,
// and only the inconclusive remainder goes through the routed sampling
// rung — on a sub-scenario, so the samples it draws match what a
// direct query on those candidates alone would draw.
func cascadeCtx(ctx context.Context, ms *MultiScenario, o YieldOptions, kind estimator.Kind) ([]Estimate, error) {
	K := len(ms.Specs)
	ests := make([]Estimate, K)
	var open []int
	for c := 0; c < K; c++ {
		b, err := WCDForScenarioCtx(ctx, ms.scenario(c))
		if err != nil {
			return nil, err
		}
		v := b.Certify(o.TargetSigma, 0)
		countVerdict(v)
		if v == estimator.Inconclusive {
			open = append(open, c)
			continue
		}
		ests[c] = wcdEstimate(b)
	}
	if len(open) == 0 {
		return ests, nil
	}
	sub := &MultiScenario{
		Base:   ms.Base,
		Coeffs: ms.Coeffs,
		Space:  ms.Space,
		Specs:  make([]model.LineSpec, len(open)),
		Target: ms.Target,
	}
	for i, c := range open {
		sub.Specs[i] = ms.Specs[c]
	}
	sampled, err := sampleEstimatesCtx(ctx, sub, o, kind, plainPass)
	if err != nil {
		return nil, err
	}
	for i, c := range open {
		ests[c] = sampled[i]
	}
	return ests, nil
}

func countVerdict(v estimator.Verdict) {
	switch v {
	case estimator.CertifiedYield:
		metWCDCertified.Inc()
	case estimator.CertifiedUnreachable:
		metWCDRefuted.Inc()
	default:
		metWCDInconclusive.Inc()
	}
}
