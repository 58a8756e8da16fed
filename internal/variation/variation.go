// Package variation is the process-variation engine: it models how a
// technology's device and wire parameters scatter around their
// nominals, and estimates the timing yield of a designed link under
// that scatter with Monte Carlo sampling — plain, or importance
// sampled for deep-tail failure probabilities (the ISLE recipe:
// shifted sampling distribution plus likelihood-ratio weights).
//
// The titled DAC-2004 paper sizes gates to improve yield under process
// variation; this package supplies the missing statistical half of
// that loop for the repo's interconnect stack. Every sample perturbs a
// tech.Technology in a standardized normal space, re-derives the
// calibrated model coefficients through the closed-form scaling path
// (model.Coefficients.ScaledFor — no re-characterization), evaluates
// the link delay with the predictive models, and scores it against a
// clock target. Sampling fans out over internal/pool, and results are
// bit-identical for any worker count: each sample owns a splittable
// PRNG stream keyed by (seed, index), and the streaming accumulators
// fold contributions in index order.
package variation

import (
	"fmt"

	"repro/internal/tech"
)

// Dims is the dimension of the standardized variation space: one
// independent standard normal per varying parameter, in the order
// VthN, VthP, channel length, wire width, wire thickness, ILD,
// resistivity. A zero sigma leaves its dimension inert without
// changing the space's shape, so estimates stay comparable (and
// reproducible) across sigma choices.
const Dims = 7

// Indices into a standardized draw z.
const (
	dimVthN = iota
	dimVthP
	dimLength
	dimWireWidth
	dimWireThickness
	dimILD
	dimRho
)

// Space defines the per-node variation model: the standard deviation
// of each varying parameter. Device sigmas follow the classic
// Pelgrom-style picture (threshold voltage scatter, channel-length CD
// error); wire sigmas are relative geometry errors of the damascene
// process (line CD, metal thickness, ILD thickness) plus copper
// resistivity scatter.
type Space struct {
	// VthSigma is the absolute threshold-voltage sigma in volts,
	// applied independently to the NMOS and PMOS devices.
	VthSigma float64
	// LengthSigma is the relative channel-length sigma. A longer
	// channel weakens the device (K ∝ 1/L) and adds gate capacitance
	// (CGate ∝ L); both polarities move together (the gates are drawn
	// by the same lithography).
	LengthSigma float64
	// WireWidthSigma is the relative drawn-width sigma of a routed
	// line. Width moves at constant pitch: a wider line loses the
	// same amount of spacing, so coupling capacitance rises as ground
	// resistance falls — the tradeoff that makes wire CD variation
	// timing-relevant in both directions.
	WireWidthSigma float64
	// WireThicknessSigma is the relative metal-thickness sigma.
	WireThicknessSigma float64
	// ILDSigma is the relative inter-layer-dielectric-thickness sigma.
	ILDSigma float64
	// RhoSigma is the relative bulk-resistivity sigma. The scattering
	// and barrier corrections then apply on top of the perturbed bulk
	// value and the perturbed width (the barrier-corrected resistivity
	// the models already use).
	RhoSigma float64
}

// DefaultSpace returns the engine's default sigmas — mid-single-digit
// relative scatter for geometry and 30 mV of threshold scatter,
// representative of the sub-100nm literature the estimators target.
func DefaultSpace() Space {
	return Space{
		VthSigma:           0.030,
		LengthSigma:        0.05,
		WireWidthSigma:     0.05,
		WireThicknessSigma: 0.05,
		ILDSigma:           0.05,
		RhoSigma:           0.03,
	}
}

// Scaled returns a copy of the space with every sigma multiplied by f
// (f = 0 disables variation entirely; f = 2 doubles every sigma).
func (s Space) Scaled(f float64) Space {
	s.VthSigma *= f
	s.LengthSigma *= f
	s.WireWidthSigma *= f
	s.ILDSigma *= f
	s.WireThicknessSigma *= f
	s.RhoSigma *= f
	return s
}

// Validate rejects negative or NaN sigmas.
func (s Space) Validate() error {
	for _, v := range []struct {
		name  string
		sigma float64
	}{
		{"VthSigma", s.VthSigma}, {"LengthSigma", s.LengthSigma},
		{"WireWidthSigma", s.WireWidthSigma}, {"WireThicknessSigma", s.WireThicknessSigma},
		{"ILDSigma", s.ILDSigma}, {"RhoSigma", s.RhoSigma},
	} {
		if v.sigma < 0 || v.sigma != v.sigma {
			return fmt.Errorf("variation: %s %g must be non-negative", v.name, v.sigma)
		}
	}
	return nil
}

// Factors reports the multiplicative wire perturbations of one draw,
// so callers can apply the same draw to a wire.Segment whose geometry
// is not at the layer minimums (wire-sized links).
type Factors struct {
	// WireWidth, WireThickness, ILD, Rho are the multipliers applied
	// to drawn width, metal thickness, dielectric thickness, and bulk
	// resistivity (1 = nominal).
	WireWidth, WireThickness, ILD, Rho float64
}

// relFactor converts a relative sigma and a standard normal draw into
// a multiplicative factor, clamped to keep far-tail draws physical
// (the clamp sits beyond 6σ for the default sigmas, so it does not
// distort the estimators' working range).
func relFactor(sigma, z float64) float64 {
	f := 1 + sigma*z
	if f < 0.6 {
		f = 0.6
	}
	if f > 1.4 {
		f = 1.4
	}
	return f
}

// ApplyInto perturbs a technology with one standardized draw z (length
// Dims) into the caller-owned dst and returns the wire factors of the
// draw. The threshold voltages are clamped below the supply so the
// perturbed descriptor stays evaluable. The sampling kernel keeps one
// Technology per worker and perturbs into it per sample, keeping the
// steady path allocation-free. dst may not alias base; base is never
// mutated and z is only read.
func (s Space) ApplyInto(dst *tech.Technology, base *tech.Technology, z []float64) Factors {
	*dst = *base

	clampVth := func(v float64) float64 {
		if v < 0.05 {
			v = 0.05
		}
		if max := dst.Vdd - 0.05; v > max {
			v = max
		}
		return v
	}
	dst.NMOS.Vth = clampVth(dst.NMOS.Vth + s.VthSigma*z[dimVthN])
	dst.PMOS.Vth = clampVth(dst.PMOS.Vth + s.VthSigma*z[dimVthP])

	fL := relFactor(s.LengthSigma, z[dimLength])
	dst.NMOS.K /= fL
	dst.PMOS.K /= fL
	dst.NMOS.CGate *= fL
	dst.PMOS.CGate *= fL

	f := Factors{
		WireWidth:     relFactor(s.WireWidthSigma, z[dimWireWidth]),
		WireThickness: relFactor(s.WireThicknessSigma, z[dimWireThickness]),
		ILD:           relFactor(s.ILDSigma, z[dimILD]),
		Rho:           relFactor(s.RhoSigma, z[dimRho]),
	}
	dst.RhoBulk *= f.Rho
	perturbLayer(&dst.Global, f)
	perturbLayer(&dst.Intermediate, f)
	return f
}

// perturbLayer applies one draw's wire factors to a routing layer.
func perturbLayer(l *tech.WireLayer, f Factors) {
	dw := l.Width * (f.WireWidth - 1)
	l.Width += dw
	// Width moves at constant pitch: the neighbors give up the
	// spacing the line gains. Keep a sliver of spacing so the
	// coupling model stays finite.
	l.Spacing = clampSpacing(l.Spacing-dw, l.Spacing)
	l.Thickness *= f.WireThickness
	l.ILD *= f.ILD
}

// clampSpacing keeps a perturbed spacing at or above a quarter of its
// nominal value.
func clampSpacing(s, nominal float64) float64 {
	if min := 0.25 * nominal; s < min {
		return min
	}
	return s
}
