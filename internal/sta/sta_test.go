package sta

import (
	"math"
	"testing"

	"repro/internal/liberty"
	"repro/internal/rcnet"
	"repro/internal/regress"
	"repro/internal/tech"
	"repro/internal/wire"
)

// testLib characterizes a small 90nm inverter library once per test
// binary.
func testLib(t testing.TB) *liberty.Library {
	t.Helper()
	lib, err := liberty.Get(tech.MustLookup("90nm"))
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

func TestLadderSimMatchesLumpedRC(t *testing.T) {
	// Single-section ladder = lumped RC driven by a fast ramp: the
	// 50% delay must approach RC·ln2.
	R, C := 1e3, 1e-12
	lad := &rcnet.Ladder{R: []float64{R}, C: []float64{C}}
	d, s, err := ladderSim(lad, 1.0, 1e-12) // near-step input
	if err != nil {
		t.Fatal(err)
	}
	want := R * C * math.Ln2
	if math.Abs(d-want) > 0.03*want {
		t.Fatalf("lumped RC delay %g, want %g", d, want)
	}
	// 10–90 slew of one-pole step response = RC·ln9.
	wantSlew := R * C * math.Log(9)
	if math.Abs(s-wantSlew) > 0.03*wantSlew {
		t.Fatalf("slew %g, want %g", s, wantSlew)
	}
}

func TestLadderSimDistributedBelowElmore(t *testing.T) {
	// For a distributed line the true 50% delay is well below the
	// Elmore bound (≈0.4·RC vs 0.5·RC for a long line).
	n := 40
	lad := &rcnet.Ladder{R: make([]float64, n), C: make([]float64, n)}
	for i := 0; i < n; i++ {
		lad.R[i] = 1e3 / float64(n)
		lad.C[i] = 1e-12 / float64(n)
	}
	d, _, err := ladderSim(lad, 1.0, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	elmore := lad.ElmoreDelay()
	if d >= elmore {
		t.Fatalf("transient delay %g above Elmore %g", d, elmore)
	}
	if d < 0.5*elmore {
		t.Fatalf("transient delay %g implausibly below Elmore %g", d, elmore)
	}
}

func TestLadderSimSlowRampShiftsDelay(t *testing.T) {
	// With a slow input ramp the wire delay measured 50%→50% shrinks
	// toward zero or even negative is NOT expected for monotone RC:
	// it stays positive but decreases relative to the step response
	// is also not guaranteed — what must hold: output slew grows
	// with input slew.
	lad := &rcnet.Ladder{R: []float64{500, 500}, C: []float64{0.5e-12, 0.5e-12}}
	_, sFast, err := ladderSim(lad, 1.0, 10e-12)
	if err != nil {
		t.Fatal(err)
	}
	_, sSlow, err := ladderSim(lad, 1.0, 1e-9)
	if err != nil {
		t.Fatal(err)
	}
	if sSlow <= sFast {
		t.Fatalf("output slew must grow with input slew: %g vs %g", sFast, sSlow)
	}
}

func TestLadderSimErrors(t *testing.T) {
	lad := &rcnet.Ladder{R: []float64{1e3}, C: []float64{1e-12}}
	if _, _, err := ladderSim(lad, 1.0, 0); err == nil {
		t.Fatal("zero slew accepted")
	}
	empty := &rcnet.Ladder{}
	if _, _, err := ladderSim(empty, 1.0, 1e-12); err == nil {
		t.Fatal("empty ladder accepted")
	}
	bad := &rcnet.Ladder{R: []float64{0}, C: []float64{1e-12}}
	if _, _, err := ladderSim(bad, 1.0, 1e-12); err == nil {
		t.Fatal("zero resistance accepted")
	}
}

func TestLineAnalyzeBasics(t *testing.T) {
	lib := testLib(t)
	tc := lib.Tech
	cell := lib.Cell("INVD12")
	if cell == nil {
		t.Fatal("missing INVD12")
	}
	line := &Line{
		Cell:      cell,
		N:         4,
		Segment:   wire.NewSegment(tc, 3e-3, wire.SWSS),
		InputSlew: 300e-12,
	}
	res, err := line.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if res.Delay <= 0 {
		t.Fatal("non-positive delay")
	}
	if len(res.Stages) != 4 {
		t.Fatalf("stage count %d", len(res.Stages))
	}
	if res.Delay < res.RiseDelay && res.Delay < res.FallDelay {
		t.Fatal("worst delay below both edges")
	}
	if res.OutputSlew <= 0 {
		t.Fatal("non-positive output slew")
	}
	// A buffered 3mm line at 90nm should land in the hundreds of ps
	// to a few ns.
	if res.Delay < 50e-12 || res.Delay > 10e-9 {
		t.Fatalf("implausible 3mm delay %g", res.Delay)
	}
	// Stage sums must reproduce the worst-edge total.
	sum := 0.0
	for _, st := range res.Stages {
		sum += st.GateDelay + st.WireDelay
	}
	if math.Abs(sum-res.Delay) > 1e-15 {
		t.Fatalf("stage sum %g != total %g", sum, res.Delay)
	}
}

func TestLineDelayGrowsWithLength(t *testing.T) {
	lib := testLib(t)
	tc := lib.Tech
	cell := lib.Cell("INVD12")
	var prev float64
	for i, L := range []float64{1e-3, 3e-3, 5e-3} {
		// Scale repeater count with length to keep stages comparable.
		line := &Line{Cell: cell, N: int(L / 1e-3), Segment: wire.NewSegment(tc, L, wire.SWSS), InputSlew: 300e-12}
		res, err := line.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.Delay <= prev {
			t.Fatalf("delay not increasing with length: %g then %g", prev, res.Delay)
		}
		prev = res.Delay
	}
}

// The paper's footnote 4: "delay changes linearly with respect to
// length for buffered interconnects" — with repeater density held
// constant, per-mm delay must be flat across lengths.
func TestLineDelayLinearInLength(t *testing.T) {
	lib := testLib(t)
	cell := lib.Cell("INVD16")
	perMM := func(Lmm int) float64 {
		line := &Line{
			Cell:      cell,
			N:         Lmm, // one repeater per mm
			Segment:   wire.NewSegment(lib.Tech, float64(Lmm)*1e-3, wire.SWSS),
			InputSlew: 300e-12,
		}
		res, err := line.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		return res.Delay / float64(Lmm)
	}
	// Delay is affine in length (a fixed first-stage transient plus a
	// constant per-mm increment): a linear fit must be near-perfect.
	var ls, ds []float64
	for _, Lmm := range []int{3, 6, 9, 12} {
		ls = append(ls, float64(Lmm))
		ds = append(ds, perMM(Lmm)*float64(Lmm))
	}
	fit, err := regress.Linear(ls, ds)
	if err != nil {
		t.Fatal(err)
	}
	if fit.R2 < 0.9995 {
		t.Fatalf("delay not linear in length: R²=%v (%v)", fit.R2, fit)
	}
	if fit.Coeff[1] <= 0 {
		t.Fatal("negative per-mm slope")
	}
}

func TestGoldenBufferLine(t *testing.T) {
	// Two-stage buffers must also analyze cleanly, and at equal size
	// and count be slower than inverters (extra internal stage).
	lib := testLib(t)
	inv, buf := lib.Cell("INVD12"), lib.Cell("BUFD12")
	if inv == nil || buf == nil {
		t.Fatal("missing cells")
	}
	seg := wire.NewSegment(lib.Tech, 4e-3, wire.SWSS)
	rInv, err := (&Line{Cell: inv, N: 4, Segment: seg, InputSlew: 300e-12}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	rBuf, err := (&Line{Cell: buf, N: 4, Segment: seg, InputSlew: 300e-12}).Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if !(rBuf.Delay > rInv.Delay) {
		t.Fatalf("buffer line (%g) not slower than inverter line (%g)", rBuf.Delay, rInv.Delay)
	}
	// Buffers are non-inverting: rise and fall paths see consistent
	// polarity, and both must be positive.
	if rBuf.RiseDelay <= 0 || rBuf.FallDelay <= 0 {
		t.Fatal("degenerate buffer-line analysis")
	}
}

func TestLineBufferingHelps(t *testing.T) {
	// For a long line, adding repeaters must cut the delay: that is
	// the entire premise of buffered interconnect.
	lib := testLib(t)
	tc := lib.Tech
	cell := lib.Cell("INVD16")
	seg := wire.NewSegment(tc, 10e-3, wire.SWSS)
	one := &Line{Cell: cell, N: 1, Segment: seg, InputSlew: 300e-12}
	eight := &Line{Cell: cell, N: 8, Segment: seg, InputSlew: 300e-12}
	r1, err := one.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	r8, err := eight.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if r8.Delay >= r1.Delay {
		t.Fatalf("8 repeaters (%g) not faster than 1 (%g) on 10mm", r8.Delay, r1.Delay)
	}
}

// On a uniform buffered line, stage slews converge to a fixed point:
// after a few stages the per-stage output slew must be nearly
// constant regardless of the (different) input slew.
func TestStageSlewConverges(t *testing.T) {
	lib := testLib(t)
	cell := lib.Cell("INVD16")
	line := &Line{Cell: cell, N: 8, Segment: wire.NewSegment(lib.Tech, 8e-3, wire.SWSS), InputSlew: 500e-12}
	res, err := line.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	// Compare successive late-stage slews (same edge parity: stride 2
	// for inverters).
	s4, s6 := res.Stages[4].OutSlew, res.Stages[6].OutSlew
	if rel := math.Abs(s6-s4) / s4; rel > 0.02 {
		t.Fatalf("stage slew not converged: %.2f vs %.2f ps", s4*1e12, s6*1e12)
	}
	// And the fixed point must not depend on the line's input slew.
	line2 := &Line{Cell: cell, N: 8, Segment: line.Segment, InputSlew: 50e-12}
	res2, err := line2.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(res2.Stages[6].OutSlew-s6) / s6; rel > 0.05 {
		t.Fatalf("slew fixed point depends on input slew: %.2f vs %.2f ps",
			res2.Stages[6].OutSlew*1e12, s6*1e12)
	}
}

func TestLineStyleOrdering(t *testing.T) {
	// Worst-case SWSS must be slower than staggered (Miller factor
	// zero) at identical geometry.
	lib := testLib(t)
	tc := lib.Tech
	cell := lib.Cell("INVD12")
	mk := func(style wire.Style) float64 {
		line := &Line{Cell: cell, N: 5, Segment: wire.NewSegment(tc, 5e-3, style), InputSlew: 300e-12}
		res, err := line.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		return res.Delay
	}
	swss, stag := mk(wire.SWSS), mk(wire.Staggered)
	if stag >= swss {
		t.Fatalf("staggered (%g) not faster than SWSS (%g)", stag, swss)
	}
}

func TestLineValidation(t *testing.T) {
	lib := testLib(t)
	tc := lib.Tech
	cell := lib.Cell("INVD4")
	seg := wire.NewSegment(tc, 1e-3, wire.SWSS)
	cases := []*Line{
		{Cell: nil, N: 1, Segment: seg, InputSlew: 1e-10},
		{Cell: cell, N: 0, Segment: seg, InputSlew: 1e-10},
		{Cell: cell, N: 1, Segment: seg, InputSlew: 0},
		{Cell: cell, N: 1, Segment: wire.Segment{}, InputSlew: 1e-10},
	}
	for i, l := range cases {
		if _, err := l.Analyze(); err == nil {
			t.Errorf("case %d: invalid line accepted", i)
		}
	}
}

func BenchmarkLineAnalyze(b *testing.B) {
	lib := testLib(b)
	cell := lib.Cell("INVD12")
	line := &Line{Cell: cell, N: 5, Segment: wire.NewSegment(lib.Tech, 5e-3, wire.SWSS), InputSlew: 300e-12}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := line.Analyze(); err != nil {
			b.Fatal(err)
		}
	}
}
