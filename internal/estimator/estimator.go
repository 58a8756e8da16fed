// Package estimator is the high-sigma estimator ladder behind the
// yield engine: the names of its tail-probability estimators, with
// automatic routing by the failure-probability regime a query targets.
//
// The problem it solves is the collapse of the two historical code
// paths at production sign-off sigmas. Plain Monte Carlo needs ~100/p
// samples to resolve a failure probability p, which at 6σ
// (p ≈ 1e-9) is ~1e11 samples — effectively never. The ISLE-style
// mean-shift estimator stretches that to ~4σ, but a single shifted
// Gaussian cannot track the curved, possibly multi-lobed failure
// regions deeper in the tail, and its likelihood ratios degenerate.
// The ladder the high-sigma literature converged on (and the OpenYield
// exemplars enumerate: MC / MNIS / AIS / ACS / HSCS) fills the gap
// with three ingredients this package supplies the math for:
//
//   - adaptive importance sampling (AIS): iterate draw → rank by the
//     constraint metric → refit a Gaussian-mixture proposal on the
//     elite set (the cross-entropy method), then estimate with
//     self-normalized likelihood-ratio weights and an effective-
//     sample-size guard;
//   - a worst-case-distance (WCD) analytic bound: the minimum-norm
//     point of the failure region in the standardized space, found by
//     projected line search, whose first-order failure probability
//     Φ(−β) certifies "yield reached" or "yield unreachable" before
//     any sampling (the pyopus WCD→MC cascade);
//   - quasi-Monte Carlo (QMC): scrambled Sobol points through the
//     inverse normal CDF for faster-than-1/√n convergence at moderate
//     sigma.
//
// The concrete estimators run in internal/variation (they need the
// scenario evaluators); this package owns the estimator identities,
// the routing policy, and the numerics that are independent of what
// is being estimated. Routing is by the caller's target sigma: the
// regime the query must resolve, not the answer itself — a 6σ query
// routes to AIS with a WCD pre-filter, a 2σ query stays on plain MC.
package estimator

import (
	"fmt"
	"math"

	"repro/internal/obs"
)

// Kind names one rung of the ladder. The zero value is Auto: let the
// router pick from the target regime.
type Kind string

const (
	// Auto routes by target sigma (see Route); with no target hint it
	// preserves the historical default (MC, or ISLE when importance
	// sampling was requested).
	Auto Kind = ""
	// MC is plain Monte Carlo: unbiased, assumption-free, and the
	// right tool whenever failures are common enough to observe.
	MC Kind = "mc"
	// ISLE is the mean-shift importance-sampling estimator: a single
	// Gaussian centered on the most probable failure point, with
	// likelihood-ratio weights.
	ISLE Kind = "isle"
	// AIS is adaptive importance sampling with cross-entropy updates
	// of a Gaussian-mixture proposal — the deep-tail (≳4σ) workhorse.
	AIS Kind = "ais"
	// QMC is the scrambled-Sobol quasi-Monte Carlo variant of the
	// plain estimator: same indicator, low-discrepancy points.
	QMC Kind = "qmc"
	// WCD is the worst-case-distance analytic bound alone: no
	// sampling, first-order failure probability Φ(−β) at the
	// minimum-norm failure point.
	WCD Kind = "wcd"
)

// Routing observability: how often each rung of the ladder is picked
// by the automatic router (explicit estimator requests don't count).
var (
	metRouteMC   = obs.NewCounter("estimator.routed_mc")
	metRouteISLE = obs.NewCounter("estimator.routed_isle")
	metRouteQMC  = obs.NewCounter("estimator.routed_qmc")
	metRouteAIS  = obs.NewCounter("estimator.routed_ais")
)

// Known reports whether k names a rung of the ladder (Auto does not).
func Known(k Kind) bool {
	switch k {
	case MC, QMC, ISLE, AIS, WCD:
		return true
	}
	return false
}

// Parse normalizes a user-facing estimator name ("auto", "mc", "ais",
// …) to its Kind, rejecting unknown names.
func Parse(name string) (Kind, error) {
	switch k := Kind(name); {
	case k == Auto || k == "auto":
		return Auto, nil
	case Known(k):
		return k, nil
	}
	return Auto, fmt.Errorf("estimator: unknown estimator %q (known: auto [ais isle mc qmc wcd])", name)
}

// Route picks the sampling estimator for a query that must resolve
// failure probabilities around targetFailProb — the regime the caller
// cares about (derived from a sigma level: Φ(−σ)), not the unknown
// answer. The bands tile (0, 1], each closed below and open above
// (MC's also takes 1): common failures (≥ 2e-2) stay on plain MC
// (anything cleverer only adds variance-model risk), the 2–3σ band
// [1e-3, 2e-2) takes QMC's convergence advantage, the 3–4σ band
// [1e-5, 1e-3) is where a single mean shift (ISLE) still tracks the
// failure region, and everything deeper routes to AIS. WCD is never
// routed: it draws no samples. A non-positive, NaN or above-one
// targetFailProb returns Auto — the caller falls back to its
// historical default.
func Route(targetFailProb float64) Kind {
	switch p := targetFailProb; {
	case !(p > 0) || p > 1:
		return Auto
	case p >= 2e-2:
		metRouteMC.Inc()
		return MC
	case p >= 1e-3:
		metRouteQMC.Inc()
		return QMC
	case p >= 1e-5:
		metRouteISLE.Inc()
		return ISLE
	default:
		metRouteAIS.Inc()
		return AIS
	}
}

// RouteSigma is Route for a target expressed as a sigma level:
// RouteSigma(6) routes the estimator that can resolve Φ(−6) ≈ 1e-9.
func RouteSigma(sigma float64) Kind {
	if !(sigma > 0) || math.IsInf(sigma, 0) {
		return Auto
	}
	return Route(Phi(-sigma))
}
