package estimator

import "math"

// Standard-normal numerics shared by the ladder: the CDF Φ backs the
// sigma↔probability conversions of the router and the WCD bound, and
// the inverse CDF Φ⁻¹ maps low-discrepancy uniforms onto normal
// draws for the QMC estimator.

// Phi is the standard normal CDF. Computed through erfc so the deep
// lower tail keeps full relative precision: Phi(-6) ≈ 9.87e-10 and
// Phi(-40) are both meaningful, where 1−erf-style forms would round
// to 0 long before.
func Phi(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// SigmaOf converts a failure probability to its sigma level: the β
// with Phi(−β) = p. It is the inverse of Phi(-σ), defined for
// p ∈ (0, 1).
func SigmaOf(p float64) float64 {
	return -PhiInv(p)
}

// Acklam's rational approximations to Φ⁻¹, accurate to ~1.15e-9
// relative before refinement; one Halley step against erfc below
// sharpens to full double precision.
var (
	invA = [6]float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	invB = [5]float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	invC = [6]float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	invD = [4]float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
)

const invPLow = 0.02425 // region split of the rational approximations

// PhiInv is the standard normal quantile function Φ⁻¹, defined on
// (0, 1): PhiInv(Phi(x)) = x to double precision across the full tail
// range the estimators use. PhiInv(0.5) is exactly 0; arguments at or
// beyond the ends return ∓Inf.
func PhiInv(p float64) float64 {
	switch {
	case math.IsNaN(p):
		return math.NaN()
	case p <= 0:
		return math.Inf(-1)
	case p >= 1:
		return math.Inf(1)
	case p == 0.5:
		return 0
	}

	x := phiInvApprox(p)
	// One Halley refinement against the exact CDF: e is the CDF error
	// of the approximation, u its first-order quantile correction.
	e := Phi(x) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// phiInvApprox is Acklam's rational approximation to Φ⁻¹(p), the
// starting point PhiInv and PhiInvLane refine, for p in (0, 1).
func phiInvApprox(p float64) float64 {
	switch {
	case p < invPLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((invC[0]*q+invC[1])*q+invC[2])*q+invC[3])*q+invC[4])*q + invC[5]) /
			((((invD[0]*q+invD[1])*q+invD[2])*q+invD[3])*q + 1)
	case p <= 1-invPLow:
		q := p - 0.5
		r := q * q
		return (((((invA[0]*r+invA[1])*r+invA[2])*r+invA[3])*r+invA[4])*r + invA[5]) * q /
			(((((invB[0]*r+invB[1])*r+invB[2])*r+invB[3])*r+invB[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((invC[0]*q+invC[1])*q+invC[2])*q+invC[3])*q+invC[4])*q + invC[5]) /
			((((invD[0]*q+invD[1])*q+invD[2])*q+invD[3])*q + 1)
	}
}

// phiInvChunk is how many elements PhiInvLane carries through its
// steps at a time: the length of its stack-held intermediates.
const phiInvChunk = 64

// PhiInvLane sets out[k] = PhiInv(p[k]) for every k < len(p), bit for
// bit; out must be at least as long as p and may alias it. PhiInv's
// steps each run as their own loop over the lane — the approximation,
// the CDF error (Erfc), the Exp of the Halley factor, the Halley step —
// so the elements' independent chains overlap instead of each waiting
// on its own. Every expression is PhiInv's, with the same operands in
// the same order. Inputs PhiInv special-cases (NaN, outside (0, 1),
// exactly 0.5) take PhiInv itself.
func PhiInvLane(out, p []float64) {
	out = out[:len(p)]
	for len(p) > 0 {
		n := min(len(p), phiInvChunk)
		phiInvChunkLane(out[:n], p[:n])
		out, p = out[n:], p[n:]
	}
}

// phiInvChunkLane is PhiInvLane on at most phiInvChunk elements.
func phiInvChunkLane(out, p []float64) {
	var x, e [phiInvChunk]float64
	var special [phiInvChunk]bool
	xs, es := x[:len(p)], e[:len(p)]
	anySpecial := false
	for k, pk := range p {
		if !(pk > 0 && pk < 1) || pk == 0.5 {
			xs[k], special[k], anySpecial = PhiInv(pk), true, true
			continue
		}
		xs[k] = phiInvApprox(pk)
	}
	for k, xk := range xs {
		es[k] = Phi(xk) - p[k]
	}
	// p is dead from here on, so out may hold the Exp factors.
	for k, xk := range xs {
		out[k] = math.Exp(xk * xk / 2)
	}
	for k, xk := range xs {
		u := es[k] * math.Sqrt(2*math.Pi) * out[k]
		out[k] = xk - u/(1+xk*u/2)
	}
	if anySpecial {
		for k, xk := range xs {
			if special[k] {
				out[k] = xk
			}
		}
	}
}

// logPhiDensity is the log of the standard normal density in d
// dimensions at squared radius r² (the -d/2·log(2π) − r²/2 form the
// importance-sampling weights need).
func logPhiDensity(dims int, sq float64) float64 {
	return -0.5*float64(dims)*log2Pi - 0.5*sq
}
