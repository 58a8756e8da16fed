package liberty

import (
	"fmt"
	"math"

	"repro/internal/tech"
)

// CellKind distinguishes the two repeater flavors the paper
// characterizes. Following the paper's terminology, "repeater"
// denotes either.
type CellKind int

const (
	// Inverter is a single-stage inverting repeater.
	Inverter CellKind = iota
	// Buffer is a two-stage non-inverting repeater whose first
	// stage is a quarter of the second.
	Buffer
)

func (k CellKind) String() string {
	if k == Buffer {
		return "BUF"
	}
	return "INV"
}

// Cell is one characterized repeater: NLDM timing arcs plus the static
// attributes (input capacitance, leakage, area) the power and area
// models consume.
type Cell struct {
	// Name is the library name, e.g. "INVD8".
	Name string
	Kind CellKind
	// Size is the drive strength in unit-inverter multiples (the
	// second-stage size for buffers).
	Size float64
	// WN and WP are the (second-stage) device widths in meters.
	WN, WP float64
	// InputCap is the static input capacitance in farads.
	InputCap float64
	// Leakage is the state-averaged leakage power in watts.
	Leakage float64
	// Area is the layout area in m², quantized to whole poly
	// fingers as a real layout would be.
	Area float64
	// DelayRise/DelayFall are input-50% → output-50% delay tables
	// for rising/falling *output* transitions; SlewRise/SlewFall are
	// the corresponding output 10–90% slew tables.
	DelayRise, DelayFall *Table
	SlewRise, SlewFall   *Table
}

// Delay looks up the propagation delay (s) for the given output
// direction, input slew, and load.
func (c *Cell) Delay(outRising bool, slew, load float64) float64 {
	if outRising {
		return c.DelayRise.Lookup(slew, load)
	}
	return c.DelayFall.Lookup(slew, load)
}

// OutSlew looks up the output slew (s) for the given output direction,
// input slew, and load.
func (c *Cell) OutSlew(outRising bool, slew, load float64) float64 {
	if outRising {
		return c.SlewRise.Lookup(slew, load)
	}
	return c.SlewFall.Lookup(slew, load)
}

// WorstDelay returns max(rise, fall) delay — the metric the paper's
// tables quote for buffered lines.
func (c *Cell) WorstDelay(slew, load float64) float64 {
	return math.Max(c.DelayRise.Lookup(slew, load), c.DelayFall.Lookup(slew, load))
}

// LayoutArea returns the finger-quantized standard-cell area (m²) of a
// repeater with total device width wn+wp in technology t — the
// "golden" area that Liberty files report for existing technologies.
// It mirrors the paper's predictive construction but with the integer
// ceiling a real layout imposes:
//
//	N_f = ceil((w_p + w_n)/(h_row − 4·p_contact))
//	w_cell = (N_f + 1)·p_contact
//	a_r = h_row·w_cell
func LayoutArea(t *tech.Technology, wn, wp float64) float64 {
	usable := t.RowHeight - 4*t.ContactPitch
	nf := math.Ceil((wn + wp) / usable)
	if nf < 1 {
		nf = 1
	}
	wcell := (nf + 1) * t.ContactPitch
	return t.RowHeight * wcell
}

// Library is a characterized set of repeaters for one technology.
type Library struct {
	Tech  *tech.Technology
	Cells []*Cell
}

// Cell returns the named cell or nil.
func (l *Library) Cell(name string) *Cell {
	for _, c := range l.Cells {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// CellsOfKind returns the library's cells of one kind, in ascending
// size order.
func (l *Library) CellsOfKind(k CellKind) []*Cell {
	var out []*Cell
	for _, c := range l.Cells {
		if c.Kind == k {
			out = append(out, c)
		}
	}
	return out
}

// String implements fmt.Stringer.
func (l *Library) String() string {
	return fmt.Sprintf("liberty.Library{%s, %d cells}", l.Tech.Name, len(l.Cells))
}
