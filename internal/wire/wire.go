// Package wire models the electrical and physical properties of
// on-chip interconnect wires: resistance with the two nanometer-regime
// corrections the paper adds to the classic models (width-dependent
// resistivity from electron scattering, and the conducting-area loss
// from the diffusion barrier), ground and coupling capacitance, and
// routed bus area.
//
// The same formulas feed both sides of the reproduction: the golden
// parasitic extraction (package rcnet) consumes per-unit-length R and C
// from here to build distributed ladders, and the predictive model
// (package model) consumes the lumped totals. This mirrors the paper's
// setup, where the extractor and the models read the same LEF/ITF
// technology data and differ in how they *evaluate* delay, not in the
// underlying parasitics.
package wire

import (
	"fmt"
	"math"

	"repro/internal/tech"
)

// Style selects the design style of a routed bus, following the
// paper's experiments.
type Style int

const (
	// SWSS is single-width, single-spacing: every bit line has active
	// switching neighbors at minimum spacing. Worst-case cross-talk
	// applies (Miller factor 1.51 in the delay model).
	SWSS Style = iota
	// Shielded interleaves grounded shield wires between signal
	// wires: coupling terminates on quiet conductors, so no Miller
	// amplification, at twice the routing area.
	Shielded
	// Staggered uses SWSS geometry with repeaters staggered between
	// adjacent lines so that neighbor transitions do not align; the
	// paper models this by setting the Miller factor to zero while
	// the coupling capacitance still loads the driver (and burns
	// dynamic power).
	Staggered
)

// String implements fmt.Stringer.
func (s Style) String() string {
	switch s {
	case SWSS:
		return "SWSS"
	case Shielded:
		return "shielded"
	case Staggered:
		return "staggered"
	default:
		return fmt.Sprintf("Style(%d)", int(s))
	}
}

// MillerFactor returns the switching-pattern coefficient λ used by the
// wire-delay model for this style: 1.51 for worst-case neighbors
// (Pamunuwa et al.), 0 when coupling is neutralized by shields or
// staggering.
func (s Style) MillerFactor() float64 {
	if s == SWSS {
		return 1.51
	}
	return 0
}

// Resistivity returns the effective copper resistivity (Ω·m) of a line
// of drawn width w in technology t, including the closed-form
// surface/grain-boundary scattering correction
//
//	ρ(w) = ρ_bulk · (1 + c_s·λ_mfp/w_cu)
//
// where w_cu = w − 2·t_barrier is the copper core width after the
// barrier liner. This is the shape of the Shi–Pan closed form the
// paper adopts: resistivity rises steeply once the core width
// approaches the electron mean free path (~39 nm in Cu).
func Resistivity(t *tech.Technology, w float64) float64 {
	core := w - 2*t.Barrier
	if core <= 0 {
		// Degenerate geometry; return a huge but finite value so
		// optimization loops reject it instead of dividing by zero.
		core = 1e-10
	}
	return t.RhoBulk * (1 + t.ScatterCoeff*t.MeanFreePath/core)
}

// ResistancePerMeter returns the wire resistance per meter (Ω/m) of a
// line of drawn width w on the given layer, with both corrections: the
// scattering-corrected resistivity and the barrier-reduced conducting
// cross-section (w − 2·t_b)·(h − t_b); the barrier occupies both
// sidewalls and the trench bottom of a damascene line.
func ResistancePerMeter(t *tech.Technology, l tech.WireLayer, w float64) float64 {
	coreW := w - 2*t.Barrier
	coreH := l.Thickness - t.Barrier
	if coreW <= 0 || coreH <= 0 {
		return 1e12 // non-physical geometry: effectively open
	}
	return Resistivity(t, w) / (coreW * coreH)
}

// ClassicResistancePerMeter returns the uncorrected (Bakoglu-era) wire
// resistance per meter: bulk resistivity over the full drawn
// cross-section. The baseline models and the ablation benches use it.
func ClassicResistancePerMeter(t *tech.Technology, l tech.WireLayer, w float64) float64 {
	return t.RhoBulk / (w * l.Thickness)
}

// GroundCapPerMeter returns the capacitance per meter (F/m) from a
// line of width w to the planes above and below, using the
// Sakurai–Tamaru empirical form (parallel-plate term plus
// thickness-driven fringe) doubled for the two planes:
//
//	c_g = 2·ε·(1.15·(w/h) + 2.80·(t/h)^0.222) / 2   per plane, ×2
func GroundCapPerMeter(t *tech.Technology, l tech.WireLayer, w float64) float64 {
	eps := tech.Eps0 * l.EpsRel
	h := l.ILD
	return 2 * eps * (1.15*(w/h) + 2.80*math.Pow(l.Thickness/h, 0.222))
}

// CouplingCapPerMeter returns the sidewall coupling capacitance per
// meter (F/m) to one neighbor at edge-to-edge spacing s: the
// parallel-plate sidewall term with a fixed 1.2 fringe enhancement.
func CouplingCapPerMeter(t *tech.Technology, l tech.WireLayer, s float64) float64 {
	eps := tech.Eps0 * l.EpsRel
	if s <= 0 {
		s = l.Spacing
	}
	return 1.2 * eps * l.Thickness / s
}

// Segment describes one uniform run of wire on a layer in a given
// design style. The zero value is not useful; use NewSegment.
type Segment struct {
	Tech   *tech.Technology
	Layer  tech.WireLayer
	Style  Style
	Length float64 // m
	// Width and Spacing are the drawn width and the spacing to each
	// neighbor, both in meters. NewSegment defaults them to the
	// layer minimums.
	Width, Spacing float64
}

// NewSegment builds a minimum-width, minimum-spacing segment of the
// given length on t's global layer.
func NewSegment(t *tech.Technology, length float64, style Style) Segment {
	return NewSegmentOn(t, t.Global, length, style)
}

// NewSegmentOn builds a minimum-geometry segment on an explicit
// routing layer (e.g. t.Intermediate for shorter, denser links).
func NewSegmentOn(t *tech.Technology, layer tech.WireLayer, length float64, style Style) Segment {
	return Segment{
		Tech:    t,
		Layer:   layer,
		Style:   style,
		Length:  length,
		Width:   layer.Width,
		Spacing: layer.Spacing,
	}
}

// Validate reports whether the segment geometry is usable.
func (s Segment) Validate() error {
	if s.Tech == nil {
		return fmt.Errorf("wire: segment has no technology")
	}
	if s.Length <= 0 {
		return fmt.Errorf("wire: non-positive length %g", s.Length)
	}
	if s.Width <= 0 || s.Spacing <= 0 {
		return fmt.Errorf("wire: non-positive width/spacing")
	}
	if s.Width <= 2*s.Tech.Barrier {
		return fmt.Errorf("wire: width %g leaves no copper core after barrier %g", s.Width, s.Tech.Barrier)
	}
	return nil
}

// Resistance returns the total corrected resistance (Ω) of the segment.
func (s Segment) Resistance() float64 {
	return ResistancePerMeter(s.Tech, s.Layer, s.Width) * s.Length
}

// ClassicResistance returns the Bakoglu-era uncorrected resistance (Ω).
func (s Segment) ClassicResistance() float64 {
	return ClassicResistancePerMeter(s.Tech, s.Layer, s.Width) * s.Length
}

// GroundCap returns the total ground capacitance (F) of the segment.
// For the shielded style the two neighbors are grounded shields, so
// their sidewall capacitance counts as ground capacitance here.
func (s Segment) GroundCap() float64 {
	cg := GroundCapPerMeter(s.Tech, s.Layer, s.Width)
	if s.Style == Shielded {
		cg += 2 * CouplingCapPerMeter(s.Tech, s.Layer, s.Spacing)
	}
	return cg * s.Length
}

// CouplingCap returns the total switching-neighbor coupling
// capacitance (F): two neighbors for SWSS/Staggered, zero for
// Shielded (the shields are quiet and already counted in GroundCap).
func (s Segment) CouplingCap() float64 {
	if s.Style == Shielded {
		return 0
	}
	return 2 * CouplingCapPerMeter(s.Tech, s.Layer, s.Spacing) * s.Length
}

// TotalCap returns ground plus coupling capacitance (F) — the load the
// driver charges, independent of Miller amplification.
func (s Segment) TotalCap() float64 { return s.GroundCap() + s.CouplingCap() }

// DelayCaps splits the segment's capacitance into the part that acts
// as quiet (ground) capacitance and the part subject to Miller
// amplification by switching neighbors, for delay analysis:
//
//   - SWSS: neighbors switch in the worst-case pattern, so the full
//     coupling capacitance is Miller-amplified.
//   - Shielded: neighbors are grounded shields; all capacitance is
//     quiet (GroundCap already includes the shield sidewalls).
//   - Staggered: repeater staggering de-correlates neighbor
//     transitions, which the paper models as a zero Miller factor —
//     the coupling capacitance still loads the driver but is not
//     amplified, so it moves into the quiet part.
//
// Power analysis must use TotalCap instead: staggering does not reduce
// the charge delivered per transition.
func (s Segment) DelayCaps() (quiet, coupled float64) {
	switch s.Style {
	case SWSS:
		return s.GroundCap(), s.CouplingCap()
	case Staggered:
		return s.GroundCap() + s.CouplingCap(), 0
	default: // Shielded
		return s.GroundCap(), 0
	}
}

// BusArea returns the routed area (m²) of an n-bit bus of this
// segment's length following the paper's formula
//
//	a_w = (n·(w_w + s_w) + s_w) · L
//
// with the track count doubled for the shielded style (one shield per
// signal).
func (s Segment) BusArea(n int) float64 {
	tracks := float64(n)
	if s.Style == Shielded {
		tracks = 2 * float64(n)
	}
	widthAcross := tracks*(s.Width+s.Spacing) + s.Spacing
	return widthAcross * s.Length
}
