package baseline

import (
	"math"
	"testing"

	"repro/internal/tech"
	"repro/internal/wire"
)

func seg90(L float64) wire.Segment {
	return wire.NewSegment(tech.MustLookup("90nm"), L, wire.SWSS)
}

func TestDeriveGatePlausible(t *testing.T) {
	g := DeriveGate(tech.MustLookup("90nm"))
	// Unit inverter switch resistance: hundreds of Ω to tens of kΩ.
	if g.RdUnit < 100 || g.RdUnit > 100e3 {
		t.Fatalf("RdUnit = %g Ω implausible", g.RdUnit)
	}
	if g.CinUnit < 0.1e-15 || g.CinUnit > 100e-15 {
		t.Fatalf("CinUnit = %g F implausible", g.CinUnit)
	}
	if g.CdiffUnit <= 0 || g.CdiffUnit >= g.CinUnit {
		t.Fatalf("CdiffUnit = %g vs CinUnit %g", g.CdiffUnit, g.CinUnit)
	}
}

func TestGateScaling(t *testing.T) {
	g := DeriveGate(tech.MustLookup("65nm"))
	if math.Abs(g.Rd(4)-g.RdUnit/4) > 1e-12 {
		t.Fatal("Rd scaling")
	}
	if math.Abs(g.Cin(4)-4*g.CinUnit) > 1e-24 {
		t.Fatal("Cin scaling")
	}
	if math.Abs(g.Cdiff(8)-8*g.CdiffUnit) > 1e-24 {
		t.Fatal("Cdiff scaling")
	}
}

func TestKindString(t *testing.T) {
	if Bakoglu.String() != "bakoglu" || Pamunuwa.String() != "pamunuwa" {
		t.Fatal("kind strings")
	}
}

func TestLineSpecValidation(t *testing.T) {
	good := LineSpec{Size: 8, N: 4, Segment: seg90(3e-3)}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.Size = 0
	if bad.Validate() == nil {
		t.Fatal("zero size accepted")
	}
	bad = good
	bad.N = 0
	if bad.Validate() == nil {
		t.Fatal("zero count accepted")
	}
	bad = good
	bad.Segment.Length = 0
	if bad.Validate() == nil {
		t.Fatal("bad segment accepted")
	}
}

func TestBakogluIgnoresCoupling(t *testing.T) {
	// Bakoglu sees the same delay for SWSS and staggered styles at
	// equal geometry because it never looks at coupling.
	tc := tech.MustLookup("90nm")
	swss := LineSpec{Size: 8, N: 4, Segment: wire.NewSegment(tc, 5e-3, wire.SWSS)}
	stag := LineSpec{Size: 8, N: 4, Segment: wire.NewSegment(tc, 5e-3, wire.Staggered)}
	d1, err := LineDelay(Bakoglu, swss)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := LineDelay(Bakoglu, stag)
	if err != nil {
		t.Fatal(err)
	}
	if d1 != d2 {
		t.Fatalf("Bakoglu delay depends on style: %g vs %g", d1, d2)
	}
}

func TestPamunuwaSeesCoupling(t *testing.T) {
	tc := tech.MustLookup("90nm")
	swss := LineSpec{Size: 8, N: 4, Segment: wire.NewSegment(tc, 5e-3, wire.SWSS)}
	sh := LineSpec{Size: 8, N: 4, Segment: wire.NewSegment(tc, 5e-3, wire.Shielded)}
	dSwss, err := LineDelay(Pamunuwa, swss)
	if err != nil {
		t.Fatal(err)
	}
	dSh, err := LineDelay(Pamunuwa, sh)
	if err != nil {
		t.Fatal(err)
	}
	if !(dSwss > dSh) {
		t.Fatalf("Pamunuwa must charge worst-case coupling: SWSS %g vs shielded %g", dSwss, dSh)
	}
}

func TestBaselineOrdering(t *testing.T) {
	// For worst-case SWSS lines, Bakoglu (no coupling) predicts less
	// delay than Pamunuwa (full cap + Miller).
	spec := LineSpec{Size: 12, N: 5, Segment: seg90(5e-3)}
	b, err := LineDelay(Bakoglu, spec)
	if err != nil {
		t.Fatal(err)
	}
	p, err := LineDelay(Pamunuwa, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !(b < p) {
		t.Fatalf("Bakoglu %g not below Pamunuwa %g", b, p)
	}
	if b <= 0 {
		t.Fatal("non-positive delay")
	}
}

func TestLineDelayScalesWithLength(t *testing.T) {
	for _, k := range []Kind{Bakoglu, Pamunuwa} {
		short := LineSpec{Size: 8, N: 2, Segment: seg90(2e-3)}
		long := LineSpec{Size: 8, N: 2, Segment: seg90(4e-3)}
		ds, err := LineDelay(k, short)
		if err != nil {
			t.Fatal(err)
		}
		dl, err := LineDelay(k, long)
		if err != nil {
			t.Fatal(err)
		}
		if dl <= ds {
			t.Fatalf("%v: delay not increasing with length", k)
		}
	}
}

func TestLinePower(t *testing.T) {
	spec := LineSpec{Size: 8, N: 4, Segment: seg90(5e-3)}
	dynB, leakB, err := LinePower(Bakoglu, spec, 0.15, 1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	dynP, leakP, err := LinePower(Pamunuwa, spec, 0.15, 1.5e9)
	if err != nil {
		t.Fatal(err)
	}
	if dynB <= 0 || leakB <= 0 {
		t.Fatal("non-positive power")
	}
	// Bakoglu's dynamic power misses coupling: must be well below
	// Pamunuwa's for the same line.
	if !(dynB < 0.8*dynP) {
		t.Fatalf("Bakoglu dynamic %g not well below Pamunuwa %g", dynB, dynP)
	}
	if leakB != leakP {
		t.Fatal("leakage should not depend on the wire-cap model")
	}
	if _, _, err := LinePower(Bakoglu, spec, -1, 1e9); err == nil {
		t.Fatal("negative activity accepted")
	}
	if _, _, err := LinePower(Bakoglu, spec, 0.1, 0); err == nil {
		t.Fatal("zero freq accepted")
	}
	bad := spec
	bad.N = 0
	if _, _, err := LinePower(Bakoglu, bad, 0.1, 1e9); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func TestLineAreaSimplistic(t *testing.T) {
	spec := LineSpec{Size: 8, N: 4, Segment: seg90(5e-3)}
	a, err := LineArea(spec, 128)
	if err != nil {
		t.Fatal(err)
	}
	// The simplistic area must be far below the realistic bus area
	// (which includes spacing) — the Table III "very large
	// difference".
	real := spec.Segment.BusArea(128)
	if !(a < 0.7*real) {
		t.Fatalf("baseline area %g not well below realistic %g", a, real)
	}
	if _, err := LineArea(spec, 0); err == nil {
		t.Fatal("zero bits accepted")
	}
	bad := spec
	bad.Size = 0
	if _, err := LineArea(bad, 8); err == nil {
		t.Fatal("bad spec accepted")
	}
}

func BenchmarkBaselineLineDelay(b *testing.B) {
	spec := LineSpec{Size: 12, N: 5, Segment: seg90(5e-3)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := LineDelay(Pamunuwa, spec); err != nil {
			b.Fatal(err)
		}
	}
}
