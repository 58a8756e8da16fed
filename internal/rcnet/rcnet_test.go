package rcnet

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tech"
	"repro/internal/wire"
)

func seg(t *testing.T, style wire.Style) wire.Segment {
	t.Helper()
	return wire.NewSegment(tech.MustLookup("90nm"), 1e-3, style)
}

func TestFromSegmentTotals(t *testing.T) {
	s := seg(t, wire.SWSS)
	load := 10e-15
	lad, err := FromSegment(s, 32, 2.0, load)
	if err != nil {
		t.Fatal(err)
	}
	if lad.Sections() != 32 {
		t.Fatalf("sections = %d", lad.Sections())
	}
	totalR := 0.0
	for _, r := range lad.R {
		totalR += r
	}
	if math.Abs(totalR-s.Resistance()) > 1e-9*s.Resistance() {
		t.Fatalf("total R %g != segment R %g", totalR, s.Resistance())
	}
	quiet, coupled := s.DelayCaps()
	wantC := quiet + 2*coupled + load
	if math.Abs(lad.TotalC()-wantC) > 1e-12*wantC {
		t.Fatalf("total C %g != %g", lad.TotalC(), wantC)
	}
}

func TestFromSegmentErrors(t *testing.T) {
	s := seg(t, wire.SWSS)
	if _, err := FromSegment(s, 0, 2, 0); err == nil {
		t.Fatal("zero sections accepted")
	}
	if _, err := FromSegment(s, 8, 2, -1); err == nil {
		t.Fatal("negative load accepted")
	}
	bad := s
	bad.Length = -1
	if _, err := FromSegment(bad, 8, 2, 0); err == nil {
		t.Fatal("invalid segment accepted")
	}
}

// A single-section "ladder" is a lumped RC: Elmore delay = R·C.
func TestElmoreLumped(t *testing.T) {
	lad := &Ladder{R: []float64{1e3}, C: []float64{1e-12}}
	if d := lad.ElmoreDelay(); math.Abs(d-1e-9) > 1e-15 {
		t.Fatalf("lumped Elmore = %g, want 1ns", d)
	}
}

// Distributed line: as sections → ∞, Elmore delay → R·C·(1/2 + …)
// Actually for a uniform distributed line with total R, C (no load),
// Elmore = RC·(n+1)/(2n) → RC/2.
func TestElmoreDistributedLimit(t *testing.T) {
	R, C := 1e3, 1e-12
	mk := func(n int) *Ladder {
		lad := &Ladder{R: make([]float64, n), C: make([]float64, n)}
		for i := 0; i < n; i++ {
			lad.R[i] = R / float64(n)
			lad.C[i] = C / float64(n)
		}
		return lad
	}
	d100 := mk(100).ElmoreDelay()
	want := R * C * 101 / 200
	if math.Abs(d100-want) > 1e-6*want {
		t.Fatalf("distributed Elmore = %g, want %g", d100, want)
	}
	// Convergence toward RC/2 from above.
	d4 := mk(4).ElmoreDelay()
	if !(d4 > d100 && d100 > R*C/2) {
		t.Fatalf("Elmore not converging: d4=%g d100=%g RC/2=%g", d4, d100, R*C/2)
	}
}

// Hand-computed two-section first moment.
func TestMomentsTwoSection(t *testing.T) {
	// R1=1, C1=1, R2=1, C2=1 (unit values).
	// m1(far) = −(R1·(C1+C2) + R2·C2) = −3.
	lad := &Ladder{R: []float64{1, 1}, C: []float64{1, 1}}
	if d := lad.ElmoreDelay(); math.Abs(d-3) > 1e-12 {
		t.Fatalf("Elmore = %g, want 3", d)
	}
}

// Property: on any random ladder, ElmoreDelay equals the RC-tree
// definition of the far node's first moment, Σ_j R_shared(far, j)·C_j,
// where R_shared(far, j) is the resistance the paths to the far node
// and to node j share: all of it from the drive point up to node j.
func TestQuickTreeLadderEquivalence(t *testing.T) {
	f := func(seed uint32) bool {
		n := int(seed%20) + 1
		lad := &Ladder{R: make([]float64, n), C: make([]float64, n)}
		x := float64(seed%97) + 1
		for i := 0; i < n; i++ {
			lad.R[i] = 10 + math.Mod(x*float64(i+1)*7.3, 90)
			lad.C[i] = (1 + math.Mod(x*float64(i+1)*3.1, 9)) * 1e-15
		}
		want := 0.0
		for j := 0; j < n; j++ {
			shared := 0.0
			for i := 0; i <= j; i++ {
				shared += lad.R[i]
			}
			want += shared * lad.C[j]
		}
		got := lad.ElmoreDelay()
		return math.Abs(got-want) <= 1e-12*want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMillerFactorScalesCoupledOnly(t *testing.T) {
	s := seg(t, wire.SWSS)
	l1, err := FromSegment(s, 16, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	l2, err := FromSegment(s, 16, 2.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !(l2.TotalC() > l1.TotalC()) {
		t.Fatal("higher Miller factor must increase delay capacitance")
	}
	// Shielded segments have no coupled part: Miller is irrelevant.
	sh := seg(t, wire.Shielded)
	s1, err := FromSegment(sh, 16, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := FromSegment(sh, 16, 2.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s1.TotalC()-s2.TotalC()) > 1e-21 {
		t.Fatal("Miller factor must not affect shielded wires")
	}
}

// Property: for every style and section count, Elmore delay is
// positive and grows quadratically-ish with length (doubling length
// quadruples R·C product asymptotically).
func TestElmoreLengthScaling(t *testing.T) {
	tc := tech.MustLookup("65nm")
	for _, style := range []wire.Style{wire.SWSS, wire.Shielded, wire.Staggered} {
		short := wire.NewSegment(tc, 1e-3, style)
		long := wire.NewSegment(tc, 2e-3, style)
		ls, err := FromSegment(short, 64, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		ll, err := FromSegment(long, 64, 2, 0)
		if err != nil {
			t.Fatal(err)
		}
		ratio := ll.ElmoreDelay() / ls.ElmoreDelay()
		if math.Abs(ratio-4) > 0.05 {
			t.Errorf("%v: unbuffered delay ratio %g, want ~4", style, ratio)
		}
	}
}

func BenchmarkElmoreDelay(b *testing.B) {
	s := wire.NewSegment(tech.MustLookup("90nm"), 5e-3, wire.SWSS)
	lad, err := FromSegment(s, 64, 2, 10e-15)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		lad.ElmoreDelay()
	}
}
