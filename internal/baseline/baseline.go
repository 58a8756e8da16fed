// Package baseline implements the two "classic" interconnect models
// the paper compares against: Bakoglu's model (column B of Table II)
// and the model of Pamunuwa et al. (column P). The original COSI-OCC
// flow of Table III (noc.OriginalModel) evaluates its links with the
// Bakoglu model.
//
// Both baselines are deliberately *uncalibrated*: their gate
// parameters are derived directly from device-model constants (the
// paper's "technology inputs from PTMs which are not calibrated
// compared with industry library files"), their drive resistance is a
// constant per size with no input-slew dependence, and their wire
// resistance omits the scattering and barrier corrections. Both take
// the segment's ground capacitance as wire.Segment.GroundCap gives it,
// fringe term included. Bakoglu additionally ignores coupling
// capacitance entirely, which is what makes the original
// NoC-synthesis results optimistic in Table III.
package baseline

import (
	"fmt"
	"math"

	"repro/internal/tech"
	"repro/internal/wire"
)

// Kind selects a baseline model.
type Kind int

const (
	// Bakoglu is the classic switch-level model: constant drive
	// resistance, lumped 0.4/0.7 wire weighting, no coupling
	// capacitance.
	Bakoglu Kind = iota
	// Pamunuwa adds the cross-talk-aware wire-delay form (coupling
	// with Miller factor λ) and realistic capacitance, but keeps the
	// constant slew-independent drive resistance and the
	// uncorrected wire resistance.
	Pamunuwa
)

func (k Kind) String() string {
	if k == Pamunuwa {
		return "pamunuwa"
	}
	return "bakoglu"
}

// Gate holds the uncalibrated per-technology gate parameters, derived
// once from device constants.
type Gate struct {
	// RdUnit is the switch resistance (Ω) of a unit (size-1)
	// inverter, taken as the average of Vdd/Idsat for the two
	// devices.
	RdUnit float64
	// CinUnit is the input capacitance (F) of a unit inverter.
	CinUnit float64
	// CdiffUnit is the output diffusion capacitance (F) of a unit
	// inverter.
	CdiffUnit float64
}

// DeriveGate computes the uncalibrated gate parameters for a
// technology.
func DeriveGate(tc *tech.Technology) Gate {
	wn, wp := tc.InverterWidths(1)
	idN := tc.NMOS.K * wn * math.Pow(tc.Vdd-tc.NMOS.Vth, tc.NMOS.Alpha)
	idP := tc.PMOS.K * wp * math.Pow(tc.Vdd-tc.PMOS.Vth, tc.PMOS.Alpha)
	return Gate{
		RdUnit:    (tc.Vdd/idN + tc.Vdd/idP) / 2,
		CinUnit:   tc.NMOS.CGate*wn + tc.PMOS.CGate*wp,
		CdiffUnit: tc.NMOS.CDiff*wn + tc.PMOS.CDiff*wp,
	}
}

// Rd returns the size-scaled drive resistance: RdUnit/size, the
// classic inverse-proportionality with no slew dependence.
func (g Gate) Rd(size float64) float64 { return g.RdUnit / size }

// Cin returns the size-scaled input capacitance.
func (g Gate) Cin(size float64) float64 { return g.CinUnit * size }

// Cdiff returns the size-scaled diffusion capacitance.
func (g Gate) Cdiff(size float64) float64 { return g.CdiffUnit * size }

// wireCaps returns the per-segment (ground, coupling) capacitance as
// the baseline sees it: Bakoglu ignores coupling entirely — the
// deficiency the paper singles out as the source of the original
// model's optimistic dynamic power — while Pamunuwa sees the full
// capacitance.
func wireCaps(k Kind, seg wire.Segment) (cg, cc float64) {
	if k == Bakoglu {
		return seg.GroundCap(), 0
	}
	return seg.GroundCap(), seg.CouplingCap()
}

// LineSpec mirrors the proposed model's line description for the
// baseline evaluators: N repeaters of the given size uniformly
// buffering the segment. Baselines predate two-stage buffers, so the
// repeater is always treated as an inverter.
type LineSpec struct {
	Size    float64
	N       int
	Segment wire.Segment
}

// Validate reports whether the spec is evaluable.
func (s *LineSpec) Validate() error {
	if s.Size <= 0 {
		return fmt.Errorf("baseline: non-positive size %g", s.Size)
	}
	if s.N < 1 {
		return fmt.Errorf("baseline: need at least one repeater")
	}
	return s.Segment.Validate()
}

// LineDelay evaluates the baseline's delay prediction for the line.
//
// Per stage, both baselines use the classic switch-level form
//
//	d = 0.7·R_d·(C_diff + C_wire,load + C_in) + wire term
//
// where Bakoglu's wire term is r_w·(0.4·c_g + 0.7·c_in) with
// uncorrected r_w and fringe-inclusive c_g, and Pamunuwa's is
// r_w·(0.4·c_g + (λ/2)·c_c + 0.7·c_in), adding the coupling c_c but
// keeping the uncorrected resistance.
func LineDelay(k Kind, spec LineSpec) (float64, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	g := DeriveGate(spec.Segment.Tech)
	stage := spec.Segment
	stage.Length = spec.Segment.Length / float64(spec.N)

	cg, cc := wireCaps(k, stage)
	rw := stage.ClassicResistance()
	ci := g.Cin(spec.Size)
	rd := g.Rd(spec.Size)

	var lambda float64
	if k == Pamunuwa {
		lambda = stage.Style.MillerFactor()
	}
	gate := 0.7 * rd * (g.Cdiff(spec.Size) + cg + cc + ci)
	if k == Bakoglu {
		gate = 0.7 * rd * (g.Cdiff(spec.Size) + cg + ci)
	}
	wireD := rw * (0.4*cg + lambda/2*cc + 0.7*ci)
	return float64(spec.N) * (gate + wireD), nil
}

// LinePower evaluates the baseline's per-bit power prediction — the
// "original model" column of Table III. Dynamic power charges only
// the capacitance the model knows about (no coupling for Bakoglu);
// leakage uses the same device off-currents but over the baseline's
// (typically smaller) repeater sizes and counts.
func LinePower(k Kind, spec LineSpec, activity, freq float64) (dynamic, leakage float64, err error) {
	if err := spec.Validate(); err != nil {
		return 0, 0, err
	}
	if activity < 0 || freq <= 0 {
		return 0, 0, fmt.Errorf("baseline: bad power params")
	}
	tc := spec.Segment.Tech
	g := DeriveGate(tc)
	stage := spec.Segment
	stage.Length = spec.Segment.Length / float64(spec.N)
	cg, cc := wireCaps(k, stage)
	cl := cg + cc + g.Cin(spec.Size)

	dynamic = float64(spec.N) * activity * cl * tc.Vdd * tc.Vdd * freq
	wn, wp := tc.InverterWidths(spec.Size)
	perRep := tc.Vdd * (tc.NMOS.IOff*wn + tc.PMOS.IOff*wp) / 2
	leakage = float64(spec.N) * perRep
	return dynamic, leakage, nil
}

// LineArea evaluates the baseline's area prediction for an n-bit bus
// using the original model's simplistic assumptions: wires occupy only
// their drawn width (no spacing, no shields) and repeaters only their
// active gate area.
func LineArea(spec LineSpec, bits int) (float64, error) {
	if err := spec.Validate(); err != nil {
		return 0, err
	}
	if bits < 1 {
		return 0, fmt.Errorf("baseline: need at least one bit")
	}
	tc := spec.Segment.Tech
	wireArea := float64(bits) * spec.Segment.Width * spec.Segment.Length
	wn, wp := tc.InverterWidths(spec.Size)
	repArea := float64(bits) * float64(spec.N) * (wn + wp) * 2 * tc.Feature
	return wireArea + repArea, nil
}
