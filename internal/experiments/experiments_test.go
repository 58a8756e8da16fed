package experiments

import (
	"context"
	"math"
	"testing"

	"repro/internal/tech"
	"repro/internal/wire"
)

func TestFig1Shape(t *testing.T) {
	res, err := Fig1(tech.MustLookup("90nm"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tech != "90nm" || len(res.Points) == 0 {
		t.Fatal("empty result")
	}
	// Paper's Fig. 1: intrinsic delay essentially independent of
	// size, strongly dependent on slew.
	if !(res.SlewSpreadMin > 1.5*res.SizeSpreadMax) {
		t.Fatalf("Fig.1 shape: slew spread %g not ≫ size spread %g", res.SlewSpreadMin, res.SizeSpreadMax)
	}
	// The quadratic term must be non-trivial (nonlinearity visible).
	if res.QuadCoeffs[2] == 0 {
		t.Fatal("quadratic coefficient vanished")
	}
	// Points sorted by (size, slew).
	for i := 1; i < len(res.Points); i++ {
		a, b := res.Points[i-1], res.Points[i]
		if a.Size > b.Size || (a.Size == b.Size && a.Slew >= b.Slew) {
			t.Fatal("points not sorted")
		}
	}
}

func TestTableIIShape(t *testing.T) {
	rows, err := TableII(TableIIConfig{
		Techs:     []string{"90nm"},
		LengthsMM: []float64{1, 5, 15},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 { // 3 lengths × 2 styles
		t.Fatalf("got %d rows", len(rows))
	}
	var worstProp, worstBase float64
	for _, r := range rows {
		if r.Golden <= 0 || r.N < 1 {
			t.Fatalf("degenerate row %+v", r)
		}
		if a := math.Abs(r.ErrProposed); a > worstProp {
			worstProp = a
		}
		base := math.Max(math.Abs(r.ErrBakoglu), math.Abs(r.ErrPamunuwa))
		if base > worstBase {
			worstBase = base
		}
	}
	// Paper's headline: proposed within ~12%, baselines off by up to
	// ~106%. Shape requirements: proposed clearly tighter than the
	// baselines, and within a modest absolute band.
	if worstProp > 0.15 {
		t.Errorf("worst proposed error %.1f%% above 15%%", worstProp*100)
	}
	if !(worstBase > 2*worstProp) {
		t.Errorf("baselines (worst %.1f%%) not clearly worse than proposed (worst %.1f%%)",
			worstBase*100, worstProp*100)
	}
}

func TestTableIIRuntimeRatio(t *testing.T) {
	rows, err := TableII(TableIIConfig{
		Techs:          []string{"90nm"},
		LengthsMM:      []float64{5},
		Styles:         []wire.Style{wire.SWSS},
		MeasureRuntime: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Paper: proposed ≥2.1× faster than sign-off. A closed form vs a
	// transient engine should clear that line with huge margin.
	if rows[0].RuntimeRatio < 2.1 {
		t.Fatalf("runtime ratio %.1f below the paper's 2.1×", rows[0].RuntimeRatio)
	}
}

func TestTableIIIShape(t *testing.T) {
	rows, err := TableIIICtx(context.Background(), TableIIIConfig{Techs: []string{"90nm"}, Cases: []string{"DVOPD"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	orig, err := FindTableIII(rows, "90nm", "DVOPD", "original")
	if err != nil {
		t.Fatal(err)
	}
	prop, err := FindTableIII(rows, "90nm", "DVOPD", "proposed")
	if err != nil {
		t.Fatal(err)
	}
	if ratio := prop.Metrics.LinkDynamic / orig.Metrics.LinkDynamic; ratio < 1.3 {
		t.Errorf("dynamic ratio %.2f too small", ratio)
	}
	if prop.Metrics.Area <= orig.Metrics.Area {
		t.Error("proposed area not larger")
	}
	if prop.MaxLinkLength >= orig.MaxLinkLength {
		t.Error("original must allow longer wires")
	}
	if _, err := FindTableIII(rows, "16nm", "DVOPD", "original"); err == nil {
		t.Error("FindTableIII found a missing row")
	}
}

func TestBufferingStudyShape(t *testing.T) {
	rows, err := BufferingStudy(BufferingConfig{Techs: []string{"90nm"}})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.PowerSaving < 0.05 {
		t.Errorf("power saving %.1f%% too small", r.PowerSaving*100)
	}
	if r.DelayCost < 0 || r.DelayCost > 0.15 {
		t.Errorf("delay cost %.1f%% outside band", r.DelayCost*100)
	}
	// Staggering (Miller factor → 0) must speed the line up at equal
	// optimization weight.
	if r.StaggerDelayGain <= 0 {
		t.Errorf("staggering gained nothing (%.2f%%)", r.StaggerDelayGain*100)
	}
}

func TestSensitivityShape(t *testing.T) {
	rows, err := Sensitivity(SensitivityConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	// Pessimism must monotonically shrink the feasible wire length
	// and (weakly) raise router count and hop depth — architectural
	// decisions moving with model error.
	for i := 1; i < len(rows); i++ {
		if rows[i].MaxLinkLength >= rows[i-1].MaxLinkLength {
			t.Errorf("frontier did not shrink at scale %g", rows[i].DelayScale)
		}
		if rows[i].Metrics.Routers < rows[i-1].Metrics.Routers {
			t.Errorf("router count decreased at scale %g", rows[i].DelayScale)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	if !(last.Metrics.Routers > first.Metrics.Routers) {
		t.Error("2× delay pessimism should force extra routers")
	}
	if !(last.Metrics.AvgHops > first.Metrics.AvgHops) {
		t.Error("2× delay pessimism should deepen paths")
	}
}

func TestExperimentsRejectUnknownInputs(t *testing.T) {
	if _, err := TableII(TableIIConfig{Techs: []string{"3nm"}}); err == nil {
		t.Error("TableII accepted unknown tech")
	}
	if _, err := TableIIICtx(context.Background(), TableIIIConfig{Techs: []string{"3nm"}}); err == nil {
		t.Error("TableIII accepted unknown tech")
	}
	if _, err := TableIIICtx(context.Background(), TableIIIConfig{Cases: []string{"NOPE"}}); err == nil {
		t.Error("TableIII accepted unknown case")
	}
	if _, err := BufferingStudy(BufferingConfig{Techs: []string{"3nm"}}); err == nil {
		t.Error("BufferingStudy accepted unknown tech")
	}
	if _, err := Sensitivity(SensitivityConfig{Tech: "3nm"}); err == nil {
		t.Error("Sensitivity accepted unknown tech")
	}
	if _, err := Sensitivity(SensitivityConfig{Case: "NOPE"}); err == nil {
		t.Error("Sensitivity accepted unknown case")
	}
}

func TestConfigDefaults(t *testing.T) {
	c2 := TableIIConfig{}.withDefaults()
	if len(c2.Techs) != 3 || len(c2.LengthsMM) != 5 || len(c2.Styles) != 2 || c2.InputSlew != 300e-12 {
		t.Fatalf("TableII defaults: %+v", c2)
	}
	c3 := TableIIIConfig{}.withDefaults()
	if len(c3.Techs) != 3 || len(c3.Cases) != 2 {
		t.Fatalf("TableIII defaults: %+v", c3)
	}
	cb := BufferingConfig{}.withDefaults()
	if cb.LengthMM != 10 || cb.PowerWeight != 0.6 {
		t.Fatalf("Buffering defaults: %+v", cb)
	}
}
