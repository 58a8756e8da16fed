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
	return estimator.FindWCD(Dims, sc.Target, sc.metricCtx(ctx))
}

// metricCtx is the scenario's delay as a search metric: DelayScratch
// on one reused Scratch, with the context checked before every
// evaluation.
func (sc *LinkScenario) metricCtx(ctx context.Context) estimator.Metric {
	var s Scratch
	return func(z []float64) (float64, error) {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return sc.DelayScratch(&s, z)
	}
}

// isleShift is the ISLE rung's mean shift for the scenario: the first
// crossing of its delay target along the steepest ascent at the origin
// (estimator.FirstCrossing), so that sampling centres on a first-order
// estimate of the most probable failure point. It is nil, selecting
// plain Monte Carlo, when the nominal point already fails (failures are
// common, and plain MC samples them well) or the delay shows no
// gradient. With no crossing within estimator.WCDMaxNorm it sits at
// that cap along the gradient: the estimate stays unbiased and reports
// ≈0 with finite variance, where plain MC would see no failure at all.
func isleShift(ctx context.Context, sc *LinkScenario) ([]float64, error) {
	b, err := estimator.FirstCrossing(Dims, sc.Target, sc.metricCtx(ctx))
	if err != nil || b.Direction == nil {
		return nil, err
	}
	shift := b.Direction
	for d := range shift {
		shift[d] *= b.Beta
	}
	return shift, nil
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
