package model

import (
	"fmt"

	"repro/internal/liberty"
	"repro/internal/wire"
)

// LineSpec describes a uniformly buffered interconnect for the
// predictive model: the same geometry package sta analyzes, but
// evaluated with closed-form equations instead of simulation.
type LineSpec struct {
	// Kind and Size select the repeater (Size in unit-inverter
	// multiples).
	Kind liberty.CellKind
	Size float64
	// N is the repeater count.
	N int
	// Segment is the full wire: length, layer, style, technology.
	Segment wire.Segment
	// InputSlew is the input 10–90% transition time (s).
	InputSlew float64
}

// Validate reports whether the spec is evaluable.
func (s *LineSpec) Validate() error {
	if s.Size <= 0 {
		return fmt.Errorf("model: non-positive size %g", s.Size)
	}
	if s.N < 1 {
		return fmt.Errorf("model: need at least one repeater, got %d", s.N)
	}
	if s.InputSlew <= 0 {
		return fmt.Errorf("model: non-positive input slew")
	}
	return s.Segment.Validate()
}

// LineTiming is the model's timing prediction for a line.
type LineTiming struct {
	// Delay is the worst-edge total delay (s).
	Delay float64
	// RiseDelay and FallDelay are per-starting-edge totals.
	RiseDelay, FallDelay float64
	// OutputSlew is the predicted slew at the receiver for the worst
	// edge.
	OutputSlew float64
}

// LineRC holds the per-meter electrical parameters of a line's wire:
// the corrected resistance and the style-resolved quiet/coupled
// capacitances. Extracting them once with SegmentRC and reusing them
// across evaluations (LineDelayRC) skips the math.Pow-heavy per-meter
// formulas, which is what makes cross-candidate sample sharing cheap:
// candidates of a sizing sweep differ only in repeater size and count,
// never in wire geometry, so one extraction per Monte Carlo sample
// serves all of them.
type LineRC struct {
	// RPerM is the scattering/barrier-corrected resistance (Ω/m).
	RPerM float64
	// GroundPerM is the quiet capacitance per meter (F/m); for the
	// shielded style it already includes both shield sidewalls,
	// mirroring wire.Segment.GroundCap.
	GroundPerM float64
	// CouplingPerM is the switching-neighbor coupling capacitance per
	// meter (F/m) — both neighbors; zero for the shielded style.
	CouplingPerM float64
}

// SegmentRC extracts the per-meter parameters of a segment. The
// folding mirrors wire.Segment.GroundCap/CouplingCap exactly (same
// operations in the same order), so delays computed through LineRC are
// bit-identical to the Segment-method path.
func SegmentRC(seg wire.Segment) LineRC {
	var rc LineRC
	rc.RPerM = wire.ResistancePerMeter(seg.Tech, seg.Layer, seg.Width)
	cg := wire.GroundCapPerMeter(seg.Tech, seg.Layer, seg.Width)
	if seg.Style == wire.Shielded {
		cg += 2 * wire.CouplingCapPerMeter(seg.Tech, seg.Layer, seg.Spacing)
	} else {
		rc.CouplingPerM = 2 * wire.CouplingCapPerMeter(seg.Tech, seg.Layer, seg.Spacing)
	}
	rc.GroundPerM = cg
	return rc
}

// stageCaps resolves one stage's quiet/coupled capacitance split,
// mirroring wire.Segment.DelayCaps for a stage of the given length.
func (rc LineRC) stageCaps(style wire.Style, length float64) (quiet, coupled float64) {
	ground := rc.GroundPerM * length
	coupling := rc.CouplingPerM * length
	switch style {
	case wire.SWSS:
		return ground, coupling
	case wire.Staggered:
		return ground + coupling, 0
	default: // Shielded (CouplingPerM is zero by construction)
		return ground, 0
	}
}

// totalCap mirrors wire.Segment.TotalCap for a run of the given
// length: GroundCap's perMeter·length plus CouplingCap's, which is zero
// for the shielded style.
func (rc LineRC) totalCap(style wire.Style, length float64) float64 {
	ground := rc.GroundPerM * length
	coupling := 0.0
	if style != wire.Shielded {
		coupling = rc.CouplingPerM * length
	}
	return ground + coupling
}

// LineDelay predicts the delay of the line: the sum over stages of the
// repeater delay (intrinsic + drive resistance × load) and the
// enhanced Pamunuwa wire delay, with the model's own output-slew
// equation propagating slew from stage to stage. Both starting edge
// polarities are evaluated and the worst kept, mirroring the golden
// analysis.
func (c *Coefficients) LineDelay(spec LineSpec) (LineTiming, error) {
	return c.LineDelayRC(spec, SegmentRC(spec.Segment))
}

// LineDelayRC is LineDelay with the wire's per-meter parameters
// supplied by the caller, bit-identical to LineDelay when rc is
// SegmentRC(spec.Segment). The sampling kernel extracts rc once per
// perturbed sample and evaluates every candidate spec against it.
func (c *Coefficients) LineDelayRC(spec LineSpec, rc LineRC) (LineTiming, error) {
	if err := spec.Validate(); err != nil {
		return LineTiming{}, err
	}
	tc := spec.Segment.Tech
	wn, wp := tc.InverterWidths(spec.Size)
	ci := c.InputCap(spec.Kind, wn, wp)

	stageLen := spec.Segment.Length / float64(spec.N)
	quiet, coupled := rc.stageCaps(spec.Segment.Style, stageLen)
	cl := quiet + 2*coupled + ci
	lambda := spec.Segment.Style.MillerFactor()
	dWire := rc.RPerM * stageLen * (0.4*quiet + (lambda/2)*coupled + 0.7*ci)

	// Both starting polarities walk the stages in one loop, as two
	// independent dependency chains. A stage's output edge alternates
	// for an inverter and holds for a buffer, so chain a (rising input)
	// starts on the rising-output stage model for a buffer and on the
	// falling one for an inverter; chain b starts on the other.
	k := c.kindCoeffs(spec.Kind)
	up, down := newStageModel(&k.Rise, wp, cl), newStageModel(&k.Fall, wn, cl)
	inverter := spec.Kind == liberty.Inverter
	ma, mb := &up, &down
	if inverter {
		ma, mb = mb, ma
	}
	a := edgeChain{slew: spec.InputSlew}
	b := edgeChain{slew: spec.InputSlew}
	i := 0
	for ; i < spec.N && !(a.settled && b.settled); i++ {
		a.stage(i, ma, dWire)
		b.stage(i, mb, dWire)
		if inverter {
			ma, mb = mb, ma
		}
	}
	// Once both chains have settled, stage i repeats stage i−2: only
	// the ordered additions remain, and each chain's output slew is the
	// stored input slew of stage N's parity.
	for ; i < spec.N; i++ {
		p := i & 1
		a.total += a.delay[p]
		a.total += dWire
		b.total += b.delay[p]
		b.total += dWire
	}
	if a.settled && b.settled {
		a.slew, b.slew = a.inSlew[spec.N&1], b.inSlew[spec.N&1]
	}
	t := LineTiming{RiseDelay: a.total, FallDelay: b.total}
	if a.total >= b.total {
		t.Delay, t.OutputSlew = a.total, a.slew
	} else {
		t.Delay, t.OutputSlew = b.total, b.slew
	}
	return t, nil
}

// stageModel is one output edge's stage delay and slew at a fixed
// pulling-device width and load. It hoists only the quotients
// Beta0/wr and Beta1/wr, which RepeaterDelay computes before using
// them, so every expression keeps RepeaterDelay's and
// RepeaterOutSlew's shape and multiply-add fusion cannot tell the two
// apart.
type stageModel struct {
	e              *EdgeCoeffs
	wr, cl, b0, b1 float64
}

func newStageModel(e *EdgeCoeffs, wr, cl float64) stageModel {
	return stageModel{e: e, wr: wr, cl: cl, b0: e.Beta0 / wr, b1: e.Beta1 / wr}
}

// edgeChain is one starting polarity's walk down the line. A stage's
// delay and output slew depend only on its edge and input slew, and
// the edge repeats every two stages, so once a stage's input slew
// equals the one two stages earlier every later stage repeats the
// stage two before it: the chain then replays its stored delays and
// slews instead of re-evaluating the stage model. The running total
// still adds each stage's delay and wire delay in order, so the sum
// keeps its bits.
type edgeChain struct {
	total, slew float64
	// inSlew and delay hold the last two stages' input slew and
	// delay, indexed by stage parity.
	inSlew, delay [2]float64
	settled       bool
}

func (ch *edgeChain) stage(i int, m *stageModel, dWire float64) {
	p := i & 1
	if !ch.settled && i >= 2 && ch.slew == ch.inSlew[p] {
		ch.settled = true
	}
	var d, next float64
	if ch.settled {
		d, next = ch.delay[p], ch.inSlew[p^1]
	} else {
		e, s := m.e, ch.slew
		d = (e.A0 + e.A1*s + e.A2*s*s) + (m.b0+m.b1*s)*m.cl
		next = e.Gamma0 + e.Gamma1*s/m.wr + e.Gamma2*m.cl
		if next < 1e-15 {
			next = 1e-15 // numerical floor; extrapolation can undershoot
		}
		ch.inSlew[p], ch.delay[p] = s, d
	}
	ch.total += d
	ch.total += dWire
	ch.slew = next
}

// PowerParams supplies the dynamic-power operating point.
type PowerParams struct {
	// Activity is the switching activity factor α.
	Activity float64
	// Freq is the clock frequency (Hz).
	Freq float64
}

// LinePower is the model's power prediction for one bit line.
type LinePower struct {
	// Dynamic is α·c_l·v_dd²·f summed over all stages (W).
	Dynamic float64
	// Leakage is the summed repeater leakage (W).
	Leakage float64
}

// Total returns dynamic plus leakage power.
func (p LinePower) Total() float64 { return p.Dynamic + p.Leakage }

// LinePower predicts the power of the line. The dynamic load per
// stage is the full wire capacitance (ground plus coupling — charge
// delivered per transition does not care about Miller timing) plus the
// next repeater's input capacitance.
func (c *Coefficients) LinePower(spec LineSpec, pp PowerParams) (LinePower, error) {
	// Validate before extracting: SegmentRC reads the technology.
	if err := spec.Validate(); err != nil {
		return LinePower{}, err
	}
	return c.LinePowerRC(spec, SegmentRC(spec.Segment), pp)
}

// LinePowerRC is LinePower with the wire's per-meter parameters
// supplied by the caller: a stage's wire capacitance is
// wire.Segment.TotalCap's perMeter·length products, taken from rc
// instead of re-derived from the geometry. A buffering search extracts
// rc once and prices every candidate against it.
func (c *Coefficients) LinePowerRC(spec LineSpec, rc LineRC, pp PowerParams) (LinePower, error) {
	if err := spec.Validate(); err != nil {
		return LinePower{}, err
	}
	if pp.Activity < 0 || pp.Freq <= 0 {
		return LinePower{}, fmt.Errorf("model: bad power params α=%g f=%g", pp.Activity, pp.Freq)
	}
	tc := spec.Segment.Tech
	wn, wp := tc.InverterWidths(spec.Size)
	ci := c.InputCap(spec.Kind, wn, wp)

	clPower := rc.totalCap(spec.Segment.Style, spec.Segment.Length/float64(spec.N)) + ci

	var p LinePower
	p.Dynamic = float64(spec.N) * DynamicPower(pp.Activity, clPower, tc.Vdd, pp.Freq)
	p.Leakage = float64(spec.N) * c.LeakagePower(spec.Kind, wn)
	return p, nil
}

// LineArea is the model's area prediction for a bus.
type LineArea struct {
	// Repeaters is the total repeater area (m²) across all bits and
	// stages.
	Repeaters float64
	// Wiring is the routed bus area (m²).
	Wiring float64
}

// Total returns repeater plus wiring area.
func (a LineArea) Total() float64 { return a.Repeaters + a.Wiring }

// LineArea predicts the silicon area of an n-bit bus implemented as n
// copies of the line.
func (c *Coefficients) LineArea(spec LineSpec, bits int) (LineArea, error) {
	if err := spec.Validate(); err != nil {
		return LineArea{}, err
	}
	if bits < 1 {
		return LineArea{}, fmt.Errorf("model: need at least one bit, got %d", bits)
	}
	tc := spec.Segment.Tech
	wn, _ := tc.InverterWidths(spec.Size)
	var a LineArea
	a.Repeaters = float64(bits) * float64(spec.N) * c.RepeaterArea(spec.Kind, wn)
	a.Wiring = spec.Segment.BusArea(bits)
	return a, nil
}
