package liberty

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tech"
)

func TestNewTableValidation(t *testing.T) {
	if _, err := NewTable([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("short slew axis accepted")
	}
	if _, err := NewTable([]float64{2, 1}, []float64{1, 2}); err == nil {
		t.Fatal("unsorted axis accepted")
	}
	if _, err := NewTable([]float64{1, 1}, []float64{1, 2}); err == nil {
		t.Fatal("duplicate breakpoint accepted")
	}
	tab, err := NewTable([]float64{1, 2}, []float64{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Values) != 2 || len(tab.Values[0]) != 2 {
		t.Fatal("bad allocation")
	}
}

func mkTable(t *testing.T) *Table {
	t.Helper()
	tab, err := NewTable([]float64{0, 10, 20}, []float64{0, 100})
	if err != nil {
		t.Fatal(err)
	}
	// f(s, l) = 2s + 0.1l — bilinear interpolation of a bilinear
	// function is exact.
	for i, s := range tab.SlewAxis {
		for j, l := range tab.LoadAxis {
			tab.Values[i][j] = 2*s + 0.1*l
		}
	}
	return tab
}

func TestLookupInterpolation(t *testing.T) {
	tab := mkTable(t)
	cases := []struct{ s, l, want float64 }{
		{0, 0, 0},
		{10, 100, 30},
		{5, 50, 15},
		{15, 25, 32.5},
	}
	for _, c := range cases {
		if got := tab.Lookup(c.s, c.l); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("Lookup(%g,%g) = %g, want %g", c.s, c.l, got, c.want)
		}
	}
}

func TestLookupExtrapolation(t *testing.T) {
	tab := mkTable(t)
	// Linear extrapolation beyond the window continues the last
	// segment's slope.
	if got := tab.Lookup(30, 0); math.Abs(got-60) > 1e-9 {
		t.Fatalf("extrapolated Lookup(30,0) = %g, want 60", got)
	}
	if got := tab.Lookup(0, 200); math.Abs(got-20) > 1e-9 {
		t.Fatalf("extrapolated Lookup(0,200) = %g, want 20", got)
	}
	if got := tab.Lookup(-10, 0); math.Abs(got+20) > 1e-9 {
		t.Fatalf("extrapolated Lookup(-10,0) = %g, want -20", got)
	}
}

// Property: lookup of a bilinear function is exact anywhere within the
// table window.
func TestQuickLookupBilinearExact(t *testing.T) {
	tab := mkTable(t)
	f := func(a, b uint8) bool {
		s := float64(a) / 255 * 20
		l := float64(b) / 255 * 100
		want := 2*s + 0.1*l
		return math.Abs(tab.Lookup(s, l)-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestLayoutAreaQuantized(t *testing.T) {
	tc := tech.MustLookup("90nm")
	small := LayoutArea(tc, 0.1e-6, 0.2e-6)
	if small <= 0 {
		t.Fatal("area must be positive")
	}
	// Area must be non-decreasing in width and quantized (step
	// function): doubling a tiny device may not change the area.
	big := LayoutArea(tc, 10e-6, 20e-6)
	if big <= small {
		t.Fatal("area must grow with device width")
	}
}

func TestFirstStageSize(t *testing.T) {
	if firstStageSize(20) != 5 {
		t.Fatalf("D20 first stage = %g", firstStageSize(20))
	}
	if firstStageSize(2) != 1 {
		t.Fatalf("D2 first stage = %g, want clamp at 1", firstStageSize(2))
	}
}

// Characterize a reduced grid and verify the library has the physical
// properties the paper's regressions rely on.
func TestCharacterizeReducedGrid(t *testing.T) {
	tc := tech.MustLookup("90nm")
	lib, err := Characterize(tc, CharOpts{
		Sizes:         []float64{4, 12},
		SlewAxis:      []float64{50e-12, 200e-12, 400e-12},
		LoadMultiples: []float64{3, 20, 60},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(lib.Cells) != 4 { // 2 sizes × 2 kinds
		t.Fatalf("got %d cells", len(lib.Cells))
	}

	inv4 := lib.Cell("INVD4")
	inv12 := lib.Cell("INVD12")
	buf4 := lib.Cell("BUFD4")
	if inv4 == nil || inv12 == nil || buf4 == nil {
		t.Fatal("missing cells")
	}

	// Input capacitance proportional to size.
	if r := inv12.InputCap / inv4.InputCap; math.Abs(r-3) > 1e-6 {
		t.Fatalf("input cap ratio %g, want 3", r)
	}
	// Leakage grows linearly with size.
	if r := inv12.Leakage / inv4.Leakage; math.Abs(r-3) > 1e-6 {
		t.Fatalf("leakage ratio %g, want 3", r)
	}
	// Delay tables: monotone in load for fixed slew.
	dr := inv4.DelayRise
	for i := range dr.SlewAxis {
		for j := 1; j < len(dr.LoadAxis); j++ {
			if dr.Values[i][j] <= dr.Values[i][j-1] {
				t.Fatalf("delay not monotone in load at slew %d", i)
			}
		}
	}
	// Bigger driver is faster at the same corner.
	if inv12.Delay(true, 200e-12, 20*inv4.InputCap) >= inv4.Delay(true, 200e-12, 20*inv4.InputCap) {
		t.Fatal("D12 not faster than D4")
	}
	// Buffers are non-inverting two-stage: slower than the same-size
	// inverter at identical corners.
	if buf4.Delay(true, 200e-12, 20*inv4.InputCap) <= inv4.Delay(true, 200e-12, 20*inv4.InputCap) {
		t.Fatal("buffer should be slower than inverter of equal size")
	}
	// Buffer input cap is the first stage's (smaller than the
	// inverter of the same drive strength).
	if buf4.InputCap >= inv4.InputCap {
		t.Fatal("buffer input cap should be below same-size inverter")
	}
	// Output slew increases with load.
	sr := inv4.SlewRise
	for i := range sr.SlewAxis {
		for j := 1; j < len(sr.LoadAxis); j++ {
			if sr.Values[i][j] <= sr.Values[i][j-1] {
				t.Fatalf("slew not monotone in load at slew %d", i)
			}
		}
	}
}

func TestCellsOfKindAndLookupHelpers(t *testing.T) {
	tc := tech.MustLookup("90nm")
	lib, err := Characterize(tc, CharOpts{
		Sizes:         []float64{4, 8},
		SlewAxis:      []float64{50e-12, 300e-12},
		LoadMultiples: []float64{3, 30},
		Kinds:         []CellKind{Inverter},
	})
	if err != nil {
		t.Fatal(err)
	}
	invs := lib.CellsOfKind(Inverter)
	if len(invs) != 2 {
		t.Fatalf("got %d inverters", len(invs))
	}
	if lib.CellsOfKind(Buffer) != nil {
		t.Fatal("no buffers were characterized")
	}
	if lib.Cell("INVD4") == nil || lib.Cell("NOPE") != nil {
		t.Fatal("Cell lookup")
	}
	c := invs[0]
	if c.WorstDelay(100e-12, 10e-15) < c.Delay(true, 100e-12, 10e-15)-1e-18 {
		t.Fatal("worst delay below rise delay")
	}
}

func TestCharacterizeRejectsInvalidTech(t *testing.T) {
	bad := tech.MustLookup("90nm").Clone()
	bad.Vdd = 0.1
	if _, err := Characterize(bad, CharOpts{}); err == nil {
		t.Fatal("invalid tech accepted")
	}
}

func TestGetMemoizes(t *testing.T) {
	tc := tech.MustLookup("65nm")
	a, err := Get(tc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Get(tc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("Get should return the cached library")
	}
}

// Far-out-of-window extrapolation must stay physical (positive,
// monotone in load) — the golden engine leans on this when a stage's
// wire load exceeds the characterized grid.
func TestExtrapolationStaysPhysical(t *testing.T) {
	tc := tech.MustLookup("90nm")
	lib, err := Get(tc)
	if err != nil {
		t.Fatal(err)
	}
	c := lib.Cell("INVD20")
	grid := c.DelayRise.LoadAxis
	maxLoad := grid[len(grid)-1]
	prev := 0.0
	for _, mult := range []float64{1, 2, 5, 10} {
		d := c.Delay(true, 300e-12, mult*maxLoad)
		if d <= prev {
			t.Fatalf("extrapolated delay not monotone at %g× max load", mult)
		}
		prev = d
		s := c.OutSlew(true, 300e-12, mult*maxLoad)
		if s <= 0 {
			t.Fatalf("extrapolated slew non-positive at %g× max load", mult)
		}
	}
	// Slew axis extrapolation too.
	maxSlew := c.DelayRise.SlewAxis[len(c.DelayRise.SlewAxis)-1]
	if d := c.Delay(true, 3*maxSlew, maxLoad); d <= 0 {
		t.Fatal("extrapolated delay non-positive at 3× max slew")
	}
}

func TestKindString(t *testing.T) {
	if Inverter.String() != "INV" || Buffer.String() != "BUF" {
		t.Fatal("kind strings")
	}
}
