// Package tech provides the per-node technology descriptors the paper's
// models are calibrated against: device parameters for the circuit
// simulation substrate, wire-layer geometry for parasitic extraction,
// copper resistivity data for the scattering/barrier corrections, and
// the early library-development values (row height, contact pitch) the
// predictive area model consumes.
//
// The paper uses TSMC 90- and 65-nm high-performance libraries, a
// foundry 45-nm low-power library, and PTM-based 32-, 22-, and 16-nm
// high-performance device models, with wire geometry from LEF/ITF files
// and the ITRS. None of those proprietary sources are redistributable,
// so this package carries six built-in descriptors whose values follow
// the public ITRS/PTM scaling trends. Two deliberate properties of the
// paper's inputs are preserved because the evaluation depends on them:
// the 45-nm node is a low-power flavor (higher threshold, lower
// leakage) and its supply is 1.1 V versus 1.0 V at 65 nm — the jump
// that drives the dynamic-power increase from 65 to 45 nm in Table III.
package tech

import (
	"fmt"
	"sort"
)

// Physical constants.
const (
	// Eps0 is the vacuum permittivity in F/m.
	Eps0 = 8.854e-12
	// ThermalVoltage is kT/q at ~300 K in volts, used by the
	// subthreshold leakage model.
	ThermalVoltage = 0.0259
)

// Flavor distinguishes high-performance from low-power process flavors.
type Flavor int

const (
	// HighPerformance marks nodes characterized for speed (low Vth,
	// high leakage).
	HighPerformance Flavor = iota
	// LowPower marks nodes characterized for leakage (high Vth).
	LowPower
)

func (f Flavor) String() string {
	if f == LowPower {
		return "LP"
	}
	return "HP"
}

// WireLayer describes the geometry and dielectric environment of one
// routing layer at minimum width and spacing. All lengths in meters.
type WireLayer struct {
	// Width is the minimum wire width.
	Width float64
	// Spacing is the minimum edge-to-edge spacing to a neighbor.
	Spacing float64
	// Thickness is the metal thickness.
	Thickness float64
	// ILD is the inter-layer dielectric thickness to the plane
	// above/below.
	ILD float64
	// EpsRel is the relative permittivity of the surrounding
	// dielectric.
	EpsRel float64
}

// Pitch returns the wire pitch (width + spacing).
func (l WireLayer) Pitch() float64 { return l.Width + l.Spacing }

// Device holds the alpha-power-law (Sakurai–Newton) parameters for one
// transistor polarity, normalized per meter of device width.
type Device struct {
	// Vth is the threshold voltage magnitude in volts.
	Vth float64
	// K is the saturation transconductance in A/(m·V^Alpha): the
	// saturation current of a device of width W driven at Vgs is
	// K·W·(|Vgs|−Vth)^Alpha.
	K float64
	// Alpha is the velocity-saturation index (2 = long channel,
	// →1 with increasing velocity saturation).
	Alpha float64
	// VdsatCoeff relates the saturation drain voltage to overdrive:
	// Vdsat = VdsatCoeff·(|Vgs|−Vth)^(Alpha/2).
	VdsatCoeff float64
	// Lambda is the channel-length-modulation coefficient in 1/V.
	Lambda float64
	// IOff is the subthreshold leakage current per meter of width
	// (A/m) at Vgs = 0, Vds = Vdd.
	IOff float64
	// SubthresholdSlopeN is the subthreshold ideality factor n in
	// exp(Vgs/(n·vT)).
	SubthresholdSlopeN float64
	// CGate is the gate capacitance per meter of width (F/m).
	CGate float64
	// CDiff is the drain-diffusion capacitance per meter of width
	// (F/m).
	CDiff float64
}

// Technology aggregates everything the substrates need for one node.
type Technology struct {
	// Name is a short label such as "90nm".
	Name string
	// Feature is the node's feature size in meters (e.g. 90e-9).
	Feature float64
	// Flavor records whether the node is HP or LP.
	Flavor Flavor
	// Vdd is the nominal supply voltage in volts.
	Vdd float64
	// NMOS and PMOS are the device parameter sets.
	NMOS, PMOS Device
	// PNRatio is wp/wn used for all repeaters in the node's library.
	PNRatio float64
	// UnitWidthN is the nMOS width of a drive-strength-1 (D1)
	// inverter in meters; a Dk repeater uses k times this width.
	UnitWidthN float64
	// Global and Intermediate are the routing layers used for global
	// and intermediate wiring.
	Global, Intermediate WireLayer
	// RhoBulk is the bulk copper resistivity in Ω·m (process copper,
	// slightly above ideal).
	RhoBulk float64
	// MeanFreePath is the electron mean free path in copper (m),
	// used by the width-dependent scattering correction.
	MeanFreePath float64
	// ScatterCoeff is the dimensionless prefactor of the closed-form
	// scattering correction ρ(w) = ρ0·(1 + ScatterCoeff·λ/w_eff).
	ScatterCoeff float64
	// Barrier is the diffusion-barrier (Ta/TaN) thickness in meters;
	// it reduces the conducting cross-section of the copper line.
	Barrier float64
	// RowHeight is the standard-cell row height in meters.
	RowHeight float64
	// ContactPitch is the contacted poly pitch in meters.
	ContactPitch float64
	// Clock is the NoC operating frequency (Hz) used by the paper's
	// Table III for this node (1.5/2.25/3.0 GHz at 90/65/45 nm).
	Clock float64
}

// InverterWidths returns the nMOS and pMOS widths of a size-k repeater
// (k times the unit inverter, constant P/N ratio).
func (t *Technology) InverterWidths(size float64) (wn, wp float64) {
	wn = size * t.UnitWidthN
	wp = wn * t.PNRatio
	return wn, wp
}

// String implements fmt.Stringer.
func (t *Technology) String() string {
	return fmt.Sprintf("%s %s (Vdd=%.2gV, clk=%.3gGHz)", t.Name, t.Flavor, t.Vdd, t.Clock/1e9)
}

// nodes is the technology set, keyed by name: fixed at build time and
// never written, so readers need no lock. Values follow ITRS/PTM-style
// scaling; see the package comment for provenance.
var nodes = map[string]*Technology{
	"90nm": {
		Name: "90nm", Feature: 90e-9, Flavor: HighPerformance, Vdd: 1.2,
		NMOS: Device{Vth: 0.32, K: 700, Alpha: 1.35, VdsatCoeff: 0.75,
			Lambda: 0.06, IOff: 40e-3, SubthresholdSlopeN: 1.5,
			CGate: 1.8e-9, CDiff: 1.1e-9},
		PMOS: Device{Vth: 0.34, K: 350, Alpha: 1.40, VdsatCoeff: 0.85,
			Lambda: 0.08, IOff: 20e-3, SubthresholdSlopeN: 1.5,
			CGate: 1.8e-9, CDiff: 1.1e-9},
		PNRatio: 2.0, UnitWidthN: 0.45e-6,
		Global:       WireLayer{Width: 400e-9, Spacing: 400e-9, Thickness: 800e-9, ILD: 800e-9, EpsRel: 3.3},
		Intermediate: WireLayer{Width: 200e-9, Spacing: 200e-9, Thickness: 400e-9, ILD: 400e-9, EpsRel: 3.3},
		RhoBulk:      1.9e-8, MeanFreePath: 39e-9, ScatterCoeff: 0.45, Barrier: 12e-9,
		RowHeight: 2.8e-6, ContactPitch: 0.28e-6, Clock: 1.5e9,
	},
	"65nm": {
		Name: "65nm", Feature: 65e-9, Flavor: HighPerformance, Vdd: 1.0,
		NMOS: Device{Vth: 0.30, K: 920, Alpha: 1.30, VdsatCoeff: 0.72,
			Lambda: 0.07, IOff: 80e-3, SubthresholdSlopeN: 1.5,
			CGate: 1.6e-9, CDiff: 1.0e-9},
		PMOS: Device{Vth: 0.32, K: 460, Alpha: 1.35, VdsatCoeff: 0.82,
			Lambda: 0.09, IOff: 40e-3, SubthresholdSlopeN: 1.5,
			CGate: 1.6e-9, CDiff: 1.0e-9},
		PNRatio: 2.0, UnitWidthN: 0.325e-6,
		Global:       WireLayer{Width: 290e-9, Spacing: 290e-9, Thickness: 600e-9, ILD: 600e-9, EpsRel: 3.0},
		Intermediate: WireLayer{Width: 145e-9, Spacing: 145e-9, Thickness: 300e-9, ILD: 300e-9, EpsRel: 3.0},
		RhoBulk:      1.95e-8, MeanFreePath: 39e-9, ScatterCoeff: 0.45, Barrier: 9e-9,
		RowHeight: 2.0e-6, ContactPitch: 0.20e-6, Clock: 2.25e9,
	},
	// The 45-nm node is a low-power flavor in the paper, with a
	// library supply of 1.1 V (up from 1.0 V at 65 nm).
	"45nm": {
		Name: "45nm", Feature: 45e-9, Flavor: LowPower, Vdd: 1.1,
		NMOS: Device{Vth: 0.42, K: 760, Alpha: 1.30, VdsatCoeff: 0.74,
			Lambda: 0.05, IOff: 6e-3, SubthresholdSlopeN: 1.4,
			CGate: 1.4e-9, CDiff: 0.9e-9},
		PMOS: Device{Vth: 0.44, K: 380, Alpha: 1.35, VdsatCoeff: 0.84,
			Lambda: 0.07, IOff: 3e-3, SubthresholdSlopeN: 1.4,
			CGate: 1.4e-9, CDiff: 0.9e-9},
		PNRatio: 2.0, UnitWidthN: 0.225e-6,
		Global:       WireLayer{Width: 205e-9, Spacing: 205e-9, Thickness: 430e-9, ILD: 430e-9, EpsRel: 2.8},
		Intermediate: WireLayer{Width: 103e-9, Spacing: 103e-9, Thickness: 215e-9, ILD: 215e-9, EpsRel: 2.8},
		RhoBulk:      2.0e-8, MeanFreePath: 39e-9, ScatterCoeff: 0.45, Barrier: 7e-9,
		RowHeight: 1.4e-6, ContactPitch: 0.14e-6, Clock: 3.0e9,
	},
	"32nm": {
		Name: "32nm", Feature: 32e-9, Flavor: HighPerformance, Vdd: 0.9,
		NMOS: Device{Vth: 0.28, K: 1500, Alpha: 1.25, VdsatCoeff: 0.70,
			Lambda: 0.09, IOff: 150e-3, SubthresholdSlopeN: 1.6,
			CGate: 1.3e-9, CDiff: 0.85e-9},
		PMOS: Device{Vth: 0.30, K: 800, Alpha: 1.30, VdsatCoeff: 0.80,
			Lambda: 0.11, IOff: 80e-3, SubthresholdSlopeN: 1.6,
			CGate: 1.3e-9, CDiff: 0.85e-9},
		PNRatio: 1.9, UnitWidthN: 0.16e-6,
		Global:       WireLayer{Width: 145e-9, Spacing: 145e-9, Thickness: 300e-9, ILD: 300e-9, EpsRel: 2.6},
		Intermediate: WireLayer{Width: 72e-9, Spacing: 72e-9, Thickness: 150e-9, ILD: 150e-9, EpsRel: 2.6},
		RhoBulk:      2.1e-8, MeanFreePath: 39e-9, ScatterCoeff: 0.45, Barrier: 5e-9,
		RowHeight: 1.0e-6, ContactPitch: 0.10e-6, Clock: 3.5e9,
	},
	"22nm": {
		Name: "22nm", Feature: 22e-9, Flavor: HighPerformance, Vdd: 0.8,
		NMOS: Device{Vth: 0.26, K: 1900, Alpha: 1.20, VdsatCoeff: 0.68,
			Lambda: 0.10, IOff: 200e-3, SubthresholdSlopeN: 1.6,
			CGate: 1.2e-9, CDiff: 0.8e-9},
		PMOS: Device{Vth: 0.28, K: 1050, Alpha: 1.25, VdsatCoeff: 0.78,
			Lambda: 0.12, IOff: 110e-3, SubthresholdSlopeN: 1.6,
			CGate: 1.2e-9, CDiff: 0.8e-9},
		PNRatio: 1.8, UnitWidthN: 0.11e-6,
		Global:       WireLayer{Width: 105e-9, Spacing: 105e-9, Thickness: 220e-9, ILD: 220e-9, EpsRel: 2.4},
		Intermediate: WireLayer{Width: 52e-9, Spacing: 52e-9, Thickness: 110e-9, ILD: 110e-9, EpsRel: 2.4},
		RhoBulk:      2.2e-8, MeanFreePath: 39e-9, ScatterCoeff: 0.45, Barrier: 4e-9,
		RowHeight: 0.72e-6, ContactPitch: 0.072e-6, Clock: 4.0e9,
	},
	"16nm": {
		Name: "16nm", Feature: 16e-9, Flavor: HighPerformance, Vdd: 0.7,
		NMOS: Device{Vth: 0.25, K: 2400, Alpha: 1.15, VdsatCoeff: 0.66,
			Lambda: 0.11, IOff: 250e-3, SubthresholdSlopeN: 1.7,
			CGate: 1.1e-9, CDiff: 0.75e-9},
		PMOS: Device{Vth: 0.27, K: 1400, Alpha: 1.20, VdsatCoeff: 0.76,
			Lambda: 0.13, IOff: 150e-3, SubthresholdSlopeN: 1.7,
			CGate: 1.1e-9, CDiff: 0.75e-9},
		PNRatio: 1.7, UnitWidthN: 0.08e-6,
		Global:       WireLayer{Width: 75e-9, Spacing: 75e-9, Thickness: 160e-9, ILD: 160e-9, EpsRel: 2.2},
		Intermediate: WireLayer{Width: 38e-9, Spacing: 38e-9, Thickness: 80e-9, ILD: 80e-9, EpsRel: 2.2},
		RhoBulk:      2.3e-8, MeanFreePath: 39e-9, ScatterCoeff: 0.45, Barrier: 3e-9,
		RowHeight: 0.52e-6, ContactPitch: 0.052e-6, Clock: 4.5e9,
	},
}

// Lookup returns the built-in technology descriptor with the given
// name ("90nm" … "16nm"). The returned pointer refers to shared data
// and must not be mutated; use Clone for a private copy.
func Lookup(name string) (*Technology, error) {
	t, ok := nodes[name]
	if !ok {
		return nil, fmt.Errorf("tech: unknown technology %q (have %v)", name, Names())
	}
	return t, nil
}

// MustLookup is Lookup for known-good names; it panics on failure and
// is intended for tests and table-driven tools.
func MustLookup(name string) *Technology {
	t, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return t
}

// Names returns the available technology names, largest node first.
func Names() []string {
	out := make([]string, 0, len(nodes))
	for n := range nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool {
		return nodes[out[i]].Feature > nodes[out[j]].Feature
	})
	return out
}

// All returns every technology, largest node first.
func All() []*Technology {
	names := Names()
	out := make([]*Technology, len(names))
	for i, n := range names {
		out[i] = nodes[n]
	}
	return out
}

// Clone returns a deep copy of t that the caller may mutate (for
// what-if studies such as disabling the barrier correction).
func (t *Technology) Clone() *Technology {
	c := *t
	return &c
}

// Validate checks the internal consistency of a descriptor: positive
// geometry, supply above both thresholds, sane ratios. It exists so an
// edited descriptor (a Clone for a what-if study) fails loudly instead
// of producing NaNs deep inside a simulation.
func (t *Technology) Validate() error {
	fail := func(format string, args ...any) error {
		return fmt.Errorf("tech %s: %s", t.Name, fmt.Sprintf(format, args...))
	}
	if t.Feature <= 0 {
		return fail("feature size must be positive")
	}
	if t.Vdd <= t.NMOS.Vth || t.Vdd <= t.PMOS.Vth {
		return fail("Vdd %.3g does not exceed thresholds (%.3g/%.3g)", t.Vdd, t.NMOS.Vth, t.PMOS.Vth)
	}
	for _, d := range []struct {
		name string
		dev  Device
	}{{"nmos", t.NMOS}, {"pmos", t.PMOS}} {
		if d.dev.K <= 0 || d.dev.Alpha < 1 || d.dev.Alpha > 2 {
			return fail("%s K/alpha out of range", d.name)
		}
		if d.dev.CGate <= 0 || d.dev.CDiff <= 0 {
			return fail("%s capacitances must be positive", d.name)
		}
		if d.dev.IOff < 0 || d.dev.SubthresholdSlopeN < 1 {
			return fail("%s leakage parameters out of range", d.name)
		}
		if d.dev.VdsatCoeff <= 0 || d.dev.Lambda < 0 {
			return fail("%s Vdsat/lambda out of range", d.name)
		}
	}
	if t.PNRatio <= 0 || t.UnitWidthN <= 0 {
		return fail("sizing parameters must be positive")
	}
	for _, l := range []struct {
		name  string
		layer WireLayer
	}{{"global", t.Global}, {"intermediate", t.Intermediate}} {
		w := l.layer
		if w.Width <= 0 || w.Spacing <= 0 || w.Thickness <= 0 || w.ILD <= 0 || w.EpsRel < 1 {
			return fail("%s wire layer has non-physical geometry", l.name)
		}
	}
	if t.RhoBulk <= 0 || t.MeanFreePath <= 0 || t.ScatterCoeff < 0 {
		return fail("resistivity parameters out of range")
	}
	if t.Barrier < 0 || 2*t.Barrier >= t.Global.Width {
		return fail("barrier thickness %.3g incompatible with global width %.3g", t.Barrier, t.Global.Width)
	}
	if t.RowHeight <= 0 || t.ContactPitch <= 0 || t.RowHeight <= 4*t.ContactPitch {
		return fail("row height %.3g must exceed 4×contact pitch %.3g", t.RowHeight, t.ContactPitch)
	}
	if t.Clock <= 0 {
		return fail("clock must be positive")
	}
	return nil
}
