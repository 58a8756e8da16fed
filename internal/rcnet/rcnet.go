// Package rcnet builds distributed RC networks for interconnect
// wires — the stand-in for the SPEF parasitics that the paper extracts
// with SOC Encounter. A wire segment becomes a uniform RC ladder
// (resistance sections with capacitance at each internal node),
// coupling capacitance is folded in with a caller-chosen Miller
// factor, and the ladder's Elmore delay sets the time scale of the
// golden timing engine's transient solve (internal/sta).
package rcnet

import (
	"fmt"

	"repro/internal/wire"
)

// Ladder is a uniform RC ladder: Sections resistors in series from the
// drive point, with a capacitor to ground after each. A lumped load
// (the receiver's input capacitance) sits on the final node.
type Ladder struct {
	// R holds each section's series resistance (Ω), drive end first.
	R []float64
	// C holds the capacitance to ground at each section's far node
	// (F); C[len-1] includes the load.
	C []float64
}

// Sections returns the number of RC sections.
func (l *Ladder) Sections() int { return len(l.R) }

// TotalC returns the total capacitance including the load.
func (l *Ladder) TotalC() float64 {
	s := 0.0
	for _, c := range l.C {
		s += c
	}
	return s
}

// FromSegment discretizes a wire segment into an n-section ladder.
// The segment's capacitance is split per DelayCaps: the quiet part is
// distributed as ground capacitance, while the coupled part is
// amplified by the supplied Miller factor before being distributed —
// golden sign-off analysis uses 2.0 (worst-case simultaneous opposite
// switching), while model-side Elmore baselines may use other values.
// load is the lumped receiver capacitance added at the far node.
func FromSegment(seg wire.Segment, n int, miller, load float64) (*Ladder, error) {
	if err := seg.Validate(); err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, fmt.Errorf("rcnet: need at least one section, got %d", n)
	}
	if load < 0 {
		return nil, fmt.Errorf("rcnet: negative load %g", load)
	}
	quiet, coupled := seg.DelayCaps()
	totalC := quiet + miller*coupled
	rSec := seg.Resistance() / float64(n)
	cSec := totalC / float64(n)
	lad := &Ladder{R: make([]float64, n), C: make([]float64, n)}
	for i := 0; i < n; i++ {
		lad.R[i] = rSec
		lad.C[i] = cSec
	}
	lad.C[n-1] += load
	return lad, nil
}

// ElmoreDelay returns the Elmore delay at the far node, the negated
// first moment of its step response: Σ_i cumR_i·C_i, where cumR_i is
// the resistance from the drive point to node i, summed by index.
func (l *Ladder) ElmoreDelay() float64 {
	cumR, d := 0.0, 0.0
	for i, r := range l.R {
		cumR += r
		d += cumR * l.C[i]
	}
	return d
}
