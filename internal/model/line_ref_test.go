package model

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/liberty"
	"repro/internal/tech"
	"repro/internal/wire"
)

// referenceLineDelayRC is LineDelayRC as it was before the two starting
// polarities shared one settle-aware stage loop: each polarity walks
// every stage through lineEdge, evaluating the stage model each time.
// The tests hold the production loop to it bit for bit.
func (c *Coefficients) referenceLineDelayRC(spec LineSpec, rc LineRC) (LineTiming, error) {
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

	rise, riseSlew := c.lineEdge(spec, true, wn, wp, cl, dWire)
	fall, fallSlew := c.lineEdge(spec, false, wn, wp, cl, dWire)
	t := LineTiming{RiseDelay: rise, FallDelay: fall}
	if rise >= fall {
		t.Delay, t.OutputSlew = rise, riseSlew
	} else {
		t.Delay, t.OutputSlew = fall, fallSlew
	}
	return t, nil
}

// lineEdge evaluates one starting polarity. The stage load cl and wire
// delay dWire are identical for both polarities and supplied by the
// caller so they are computed once per line instead of once per edge.
func (c *Coefficients) lineEdge(spec LineSpec, startRising bool, wn, wp, cl, dWire float64) (total, outSlew float64) {
	slew := spec.InputSlew
	outRising := startRising
	if spec.Kind == liberty.Inverter {
		outRising = !startRising
	}
	for i := 0; i < spec.N; i++ {
		wr := wn
		if outRising {
			wr = wp
		}
		total += c.RepeaterDelay(spec.Kind, outRising, wr, slew, cl)
		total += dWire
		slew = c.RepeaterOutSlew(spec.Kind, outRising, wr, slew, cl)
		if slew < 1e-15 {
			slew = 1e-15 // numerical floor; extrapolation can undershoot
		}
		if spec.Kind == liberty.Inverter {
			outRising = !outRising
		}
	}
	return total, slew
}

// referenceLinePower is LinePower as it was before it priced the wire
// from a LineRC: the stage's capacitance comes from
// wire.Segment.TotalCap on a stage-length copy of the segment.
func (c *Coefficients) referenceLinePower(spec LineSpec, pp PowerParams) (LinePower, error) {
	if err := spec.Validate(); err != nil {
		return LinePower{}, err
	}
	if pp.Activity < 0 || pp.Freq <= 0 {
		return LinePower{}, fmt.Errorf("model: bad power params α=%g f=%g", pp.Activity, pp.Freq)
	}
	tc := spec.Segment.Tech
	wn, wp := tc.InverterWidths(spec.Size)
	ci := c.InputCap(spec.Kind, wn, wp)

	stageSeg := spec.Segment
	stageSeg.Length = spec.Segment.Length / float64(spec.N)
	clPower := stageSeg.TotalCap() + ci

	var p LinePower
	p.Dynamic = float64(spec.N) * DynamicPower(pp.Activity, clPower, tc.Vdd, pp.Freq)
	p.Leakage = float64(spec.N) * c.LeakagePower(spec.Kind, wn)
	return p, nil
}

// sameTiming reports whether two timings carry identical bits.
func sameTiming(a, b LineTiming) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return same(a.Delay, b.Delay) && same(a.RiseDelay, b.RiseDelay) &&
		same(a.FallDelay, b.FallDelay) && same(a.OutputSlew, b.OutputSlew)
}

// sameErr reports whether two errors are both nil or carry the same
// message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// flooredCoeffs returns c with every edge's slew intercept pushed far
// negative, so each stage's computed output slew lands below the
// 1e-15 floor and the floor sets it.
func flooredCoeffs(c *Coefficients) *Coefficients {
	f := *c
	for _, k := range []*KindCoeffs{&f.Inv, &f.Buf} {
		k.Rise.Gamma0, k.Fall.Gamma0 = -1e-6, -1e-6
	}
	return &f
}

// TestLineDelayMatchesReference holds the fused, settle-aware stage
// loop to the per-polarity reference bit for bit over every built-in
// technology, style, layer and repeater kind, sizes 1 to 500, input
// slews from the 1e-15 floor up, and 1 to 100 repeaters. LinePower and
// LinePowerRC, which price the wire from the same per-meter values,
// are held to the reference power.
func TestLineDelayMatchesReference(t *testing.T) {
	sizes := []float64{1, 2, 3, 5, 8, 12, 17, 30, 60, 120, 240, 500}
	slews := []float64{1e-15, 2e-15, 20e-12, 300e-12, 3e-9}
	maxN := 100
	if testing.Short() {
		sizes, slews, maxN = []float64{1, 12, 500}, []float64{1e-15, 300e-12}, 40
	}
	var cases, settled, floored int
	for _, name := range DefaultTechs() {
		tc := tech.MustLookup(name)
		for ci, coeffs := range []*Coefficients{MustDefault(name), flooredCoeffs(MustDefault(name))} {
			for _, layer := range []tech.WireLayer{tc.Global, tc.Intermediate} {
				for _, style := range []wire.Style{wire.SWSS, wire.Shielded, wire.Staggered} {
					seg := wire.NewSegmentOn(tc, layer, 5e-3, style)
					rc := SegmentRC(seg)
					pp := PowerParams{Activity: 0.15, Freq: tc.Clock}
					for _, kind := range []liberty.CellKind{liberty.Inverter, liberty.Buffer} {
						for _, size := range sizes {
							for _, slew := range slews {
								for n := 1; n <= maxN; n++ {
									spec := LineSpec{Kind: kind, Size: size, N: n, Segment: seg, InputSlew: slew}
									want, wantErr := coeffs.referenceLineDelayRC(spec, rc)
									got, err := coeffs.LineDelayRC(spec, rc)
									if !sameErr(err, wantErr) || !sameTiming(got, want) {
										t.Fatalf("%s %v %v %v size %g slew %g n %d: got %+v (%v), want %+v (%v)",
											name, layer, style, kind, size, slew, n, got, err, want, wantErr)
									}
									cases++
									if ci == 1 && want.OutputSlew == 1e-15 {
										floored++
									}
									if n > 2 && lineSettles(coeffs, spec, rc) {
										settled++
									}
									wantP, wantErr := coeffs.referenceLinePower(spec, pp)
									gotP, err := coeffs.LinePowerRC(spec, rc, pp)
									gotQ, errQ := coeffs.LinePower(spec, pp)
									if !sameErr(err, wantErr) || gotP != wantP || !sameErr(errQ, wantErr) || gotQ != wantP {
										t.Fatalf("%s %v %v %v size %g n %d: power %+v (%v) and %+v (%v), want %+v (%v)",
											name, layer, style, kind, size, n, gotP, err, gotQ, errQ, wantP, wantErr)
									}
								}
							}
						}
					}
				}
			}
		}
	}
	// The grid must reach both shortcuts the loop takes: the slew floor
	// and a settled chain.
	if floored == 0 || settled == 0 {
		t.Fatalf("%d cases: %d hit the slew floor, %d settled; want both > 0", cases, floored, settled)
	}
}

// lineSettles reports whether a polarity of spec's line reaches a
// stage whose input slew repeats the one two stages earlier: the point
// from which the production loop replays stored stages instead of
// evaluating the stage model.
func lineSettles(c *Coefficients, spec LineSpec, rc LineRC) bool {
	wn, wp := spec.Segment.Tech.InverterWidths(spec.Size)
	quiet, coupled := rc.stageCaps(spec.Segment.Style, spec.Segment.Length/float64(spec.N))
	cl := quiet + 2*coupled + c.InputCap(spec.Kind, wn, wp)
	inverter := spec.Kind == liberty.Inverter
	for _, rising := range []bool{true, false} {
		out := rising != inverter
		s, s1, s2 := spec.InputSlew, math.NaN(), math.NaN()
		for i := 0; i < spec.N; i++ {
			if s == s2 {
				return true
			}
			wr := wn
			if out {
				wr = wp
			}
			next := c.RepeaterOutSlew(spec.Kind, out, wr, s, cl)
			if next < 1e-15 {
				next = 1e-15
			}
			s2, s1, s = s1, s, next
			if inverter {
				out = !out
			}
		}
	}
	return false
}

func TestLinePowerRCValidates(t *testing.T) {
	c := MustDefault("90nm")
	seg := wire.NewSegment(tech.MustLookup("90nm"), 5e-3, wire.SWSS)
	rc := SegmentRC(seg)
	for _, tc := range []struct {
		spec LineSpec
		pp   PowerParams
	}{
		{LineSpec{Kind: liberty.Inverter, Size: 0, N: 3, Segment: seg, InputSlew: 1e-10}, PowerParams{0.15, 1e9}},
		{LineSpec{Kind: liberty.Inverter, Size: 8, N: 0, Segment: seg, InputSlew: 1e-10}, PowerParams{0.15, 1e9}},
		{LineSpec{Kind: liberty.Inverter, Size: 8, N: 3, Segment: seg, InputSlew: 1e-10}, PowerParams{-1, 1e9}},
		{LineSpec{Kind: liberty.Inverter, Size: 8, N: 3, Segment: seg, InputSlew: 1e-10}, PowerParams{0.15, 0}},
	} {
		_, wantErr := c.referenceLinePower(tc.spec, tc.pp)
		_, err := c.LinePowerRC(tc.spec, rc, tc.pp)
		_, errQ := c.LinePower(tc.spec, tc.pp)
		if wantErr == nil || !sameErr(err, wantErr) || !sameErr(errQ, wantErr) {
			t.Fatalf("%+v %+v: LinePowerRC error %v, LinePower %v, reference %v", tc.spec, tc.pp, err, errQ, wantErr)
		}
	}
}

// FuzzLineDelayRC drives the fused stage loop with arbitrary kinds,
// sizes, repeater counts up to 256, input slews, lengths, widths,
// spacings and styles, and requires the reference's exact bits,
// errors included.
func FuzzLineDelayRC(f *testing.F) {
	f.Add(uint8(0), 12.0, uint16(5), 300e-12, 5e-3, 400e-9, 400e-9, uint8(0))
	f.Add(uint8(1), 60.0, uint16(64), 1e-15, 10e-3, 290e-9, 290e-9, uint8(1))
	f.Add(uint8(0), 500.0, uint16(256), 3e-9, 20e-3, 75e-9, 75e-9, uint8(2))
	f.Add(uint8(0), -1.0, uint16(3), 300e-12, 5e-3, 400e-9, 400e-9, uint8(0))
	f.Add(uint8(1), 8.0, uint16(0), 0.0, -1.0, 0.0, 400e-9, uint8(0))
	f.Add(uint8(0), math.Inf(1), uint16(9), math.NaN(), 5e-3, 400e-9, 1e-12, uint8(2))
	tc := tech.MustLookup("90nm")
	coeffs := MustDefault("90nm")
	f.Fuzz(func(t *testing.T, kind uint8, size float64, n uint16, slew, length, width, spacing float64, style uint8) {
		seg := wire.NewSegment(tc, length, wire.Style(style%3))
		seg.Width, seg.Spacing = width, spacing
		spec := LineSpec{Kind: liberty.CellKind(kind % 2), Size: size, N: int(n % 257), Segment: seg, InputSlew: slew}
		rc := SegmentRC(seg)
		want, wantErr := coeffs.referenceLineDelayRC(spec, rc)
		got, err := coeffs.LineDelayRC(spec, rc)
		if !sameErr(err, wantErr) || !sameTiming(got, want) {
			t.Fatalf("%+v: got %+v (%v), want %+v (%v)", spec, got, err, want, wantErr)
		}
	})
}

// BenchmarkLineDelayRC times a repeater-count sweep N = 1..64 on the
// 90 nm global layer, 5 mm, the grid row a buffering search walks.
func BenchmarkLineDelayRC(b *testing.B) {
	tc := tech.MustLookup("90nm")
	coeffs := MustDefault("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	rc := SegmentRC(seg)
	spec := LineSpec{Kind: liberty.Inverter, Size: 30, Segment: seg, InputSlew: 300e-12}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for n := 1; n <= 64; n++ {
			spec.N = n
			if _, err := coeffs.LineDelayRC(spec, rc); err != nil {
				b.Fatal(err)
			}
		}
	}
}
