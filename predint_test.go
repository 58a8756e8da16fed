package predint

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestTechnologies(t *testing.T) {
	// Custom registrations from other tests (zz_register_test.go) can
	// run first under -shuffle=on, so assert on the built-in
	// subsequence rather than the exact list.
	builtin := []string{"90nm", "65nm", "45nm", "32nm", "22nm", "16nm"}
	isBuiltin := make(map[string]bool, len(builtin))
	for _, n := range builtin {
		isBuiltin[n] = true
	}
	var names []string
	for _, n := range Technologies() {
		if isBuiltin[n] {
			names = append(names, n)
		}
	}
	if len(names) != len(builtin) {
		t.Fatalf("Technologies() = %v, missing built-ins (want %v)", Technologies(), builtin)
	}
	for i, n := range builtin {
		if names[i] != n {
			t.Fatalf("Technologies() built-ins out of order: %v, want %v", names, builtin)
		}
	}
}

func TestDesignLinkDefaults(t *testing.T) {
	res, err := DesignLink(LinkRequest{Tech: "65nm", LengthMM: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repeaters < 1 || res.RepeaterSize <= 0 {
		t.Fatalf("bad buffering %+v", res)
	}
	if res.Delay <= 0 || res.DynamicPower <= 0 || res.LeakagePower <= 0 || res.Area <= 0 {
		t.Fatalf("bad metrics %+v", res)
	}
	if res.WireResistance <= 0 || res.WireCapacitance <= 0 {
		t.Fatal("missing wire totals")
	}
	// 5mm 65nm buffered link: hundreds of ps.
	if res.Delay < 100e-12 || res.Delay > 5e-9 {
		t.Fatalf("implausible delay %g", res.Delay)
	}
}

func TestDesignLinkValidation(t *testing.T) {
	if _, err := DesignLink(LinkRequest{Tech: "nope", LengthMM: 1}); err == nil {
		t.Fatal("unknown tech accepted")
	}
	if _, err := DesignLink(LinkRequest{Tech: "90nm", LengthMM: 0}); err == nil {
		t.Fatal("zero length accepted")
	}
	if _, err := DesignLink(LinkRequest{Tech: "90nm", LengthMM: 1, Style: "zigzag"}); err == nil {
		t.Fatal("unknown style accepted")
	}
}

func TestDesignLinkDelayOptimalFaster(t *testing.T) {
	base := LinkRequest{Tech: "90nm", LengthMM: 10}
	weighted, err := DesignLink(base)
	if err != nil {
		t.Fatal(err)
	}
	fast := base
	fast.DelayOptimal = true
	opt, err := DesignLink(fast)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Delay > weighted.Delay {
		t.Fatalf("delay-optimal (%g) slower than weighted (%g)", opt.Delay, weighted.Delay)
	}
	if opt.DynamicPower+opt.LeakagePower < weighted.DynamicPower+weighted.LeakagePower {
		t.Fatal("delay-optimal should not use less power than weighted")
	}
}

func TestDesignLinkStyles(t *testing.T) {
	mk := func(s Style) LinkResult {
		r, err := DesignLink(LinkRequest{Tech: "90nm", LengthMM: 8, Style: s, DelayOptimal: true})
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		return r
	}
	swss, stag, shield := mk(SWSS), mk(Staggered), mk(Shielded)
	if stag.Delay > swss.Delay {
		t.Fatal("staggered not faster than SWSS")
	}
	if shield.Area <= swss.Area {
		t.Fatal("shielding must cost area")
	}
}

func TestGoldenLinkDelayAgreesWithModel(t *testing.T) {
	// End-to-end: design a link with the model, check the golden
	// engine agrees within the paper's accuracy band.
	req := LinkRequest{Tech: "90nm", LengthMM: 5, PowerWeight: Float(0.3), LibrarySizesOnly: true}
	res, err := DesignLink(req)
	if err != nil {
		t.Fatal(err)
	}
	golden, err := GoldenLinkDelay("90nm", res.RepeaterSize, res.Repeaters, 5, SWSS, DefaultInputSlewPS)
	if err != nil {
		t.Fatal(err)
	}
	if golden <= 0 {
		t.Fatal("bad golden delay")
	}
	if e := math.Abs(res.Delay-golden) / golden; e > 0.15 {
		t.Fatalf("model vs golden divergence %.1f%%", e*100)
	}
}

func TestGoldenLinkDelayValidation(t *testing.T) {
	if _, err := GoldenLinkDelay("90nm", 7, 3, 5, SWSS, DefaultInputSlewPS); err == nil {
		t.Fatal("non-library size accepted")
	}
	if _, err := GoldenLinkDelay("nope", 8, 3, 5, SWSS, DefaultInputSlewPS); err == nil {
		t.Fatal("unknown tech accepted")
	}
	if _, err := GoldenLinkDelay("90nm", 8, 3, 5, SWSS, 0); err == nil {
		t.Fatal("zero input slew accepted")
	}
	if _, err := GoldenLinkDelay("90nm", 8, 3, 5, SWSS, -100); err == nil {
		t.Fatal("negative input slew accepted")
	}
}

func TestGoldenLinkDelaySlewMatters(t *testing.T) {
	// The golden engine must honor the requested stimulus: a slower
	// input edge produces a different (larger) first-stage delay.
	fast, err := GoldenLinkDelay("90nm", 8, 3, 5, SWSS, 100)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := GoldenLinkDelay("90nm", 8, 3, 5, SWSS, 500)
	if err != nil {
		t.Fatal(err)
	}
	if !(slow > fast) {
		t.Fatalf("golden delay ignores input slew: 100ps → %g, 500ps → %g", fast, slow)
	}
}

func TestDesignLinkGeometryOptimization(t *testing.T) {
	base := LinkRequest{Tech: "45nm", LengthMM: 10, DelayOptimal: true}
	minGeom, err := DesignLink(base)
	if err != nil {
		t.Fatal(err)
	}
	if minGeom.WidthMult != 1 || minGeom.SpacingMult != 1 {
		t.Fatalf("default geometry should be minimum: %+v", minGeom)
	}
	sized := base
	sized.OptimizeGeometry = true
	res, err := DesignLink(sized)
	if err != nil {
		t.Fatal(err)
	}
	if res.WidthMult <= 1 {
		t.Fatalf("geometry optimizer did not widen: %+v", res)
	}
	if res.Delay >= minGeom.Delay {
		t.Fatalf("sized link (%g) not faster than minimum geometry (%g)", res.Delay, minGeom.Delay)
	}
	// The wire totals must reflect the chosen geometry.
	if res.WireResistance >= minGeom.WireResistance {
		t.Fatal("widened wire should have lower resistance")
	}
}

func TestCrosstalkFacade(t *testing.T) {
	worst, err := Crosstalk(CrosstalkRequest{Tech: "90nm", LengthMM: 1, Aggressors: "opposite"})
	if err != nil {
		t.Fatal(err)
	}
	quiet, err := Crosstalk(CrosstalkRequest{Tech: "90nm", LengthMM: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !(worst.Delay > quiet.Delay) {
		t.Fatal("worst-case aggressors must slow the victim")
	}
	if !(worst.EffectiveMiller > quiet.EffectiveMiller) {
		t.Fatal("Miller ordering")
	}
	if worst.EffectiveMiller < 1.5 || worst.EffectiveMiller > 2.5 {
		t.Fatalf("worst-case Miller %g outside the physical band", worst.EffectiveMiller)
	}
	if _, err := Crosstalk(CrosstalkRequest{Tech: "90nm", LengthMM: 1, Aggressors: "dancing"}); err == nil {
		t.Fatal("unknown aggressor mode accepted")
	}
	if _, err := Crosstalk(CrosstalkRequest{Tech: "nope", LengthMM: 1}); err == nil {
		t.Fatal("unknown tech accepted")
	}
	if _, err := Crosstalk(CrosstalkRequest{Tech: "90nm"}); err == nil {
		t.Fatal("zero length accepted")
	}
}

// TestCalibrateMatchesEmbedded: the facade serves the embedded Table I
// and rejects an unknown node. Whether the embedded coefficients match
// a live calibration is model's TestDefaultMatchesLiveCalibration.
func TestCalibrateMatchesEmbedded(t *testing.T) {
	if _, err := EmbeddedCoefficients("90nm"); err != nil {
		t.Fatal(err)
	}
	if _, err := EmbeddedCoefficients("3nm"); err == nil {
		t.Fatal("unknown tech accepted")
	}
}

func TestLibraryExportImportFacade(t *testing.T) {
	var buf bytes.Buffer
	if err := ExportLibrary("90nm", &buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 1000 {
		t.Fatalf("suspiciously small library file (%d bytes)", buf.Len())
	}
	coeffs, err := CalibrateFromLibrary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	emb, _ := EmbeddedCoefficients("90nm")
	if math.Abs(coeffs.Inv.Kappa-emb.Inv.Kappa) > 1e-9*emb.Inv.Kappa {
		t.Fatal("round-trip calibration drifted")
	}
	if err := ExportLibrary("3nm", &buf); err == nil {
		t.Fatal("unknown tech accepted")
	}
	if _, err := CalibrateFromLibrary(strings.NewReader("garbage")); err == nil {
		t.Fatal("garbage library accepted")
	}
}

func TestSynthesizeNoCFacade(t *testing.T) {
	prop, err := SynthesizeNoC(NoCRequest{Case: "DVOPD", Tech: "90nm"})
	if err != nil {
		t.Fatal(err)
	}
	orig, err := SynthesizeNoC(NoCRequest{Case: "DVOPD", Tech: "90nm", UseOriginalModel: true})
	if err != nil {
		t.Fatal(err)
	}
	if prop.Metrics.TotalPower() <= orig.Metrics.TotalPower() {
		t.Fatal("proposed model should report more power than the optimistic original")
	}
	if prop.MaxLinkLengthMM >= orig.MaxLinkLengthMM {
		t.Fatal("original must allow longer links")
	}
	if _, err := SynthesizeNoC(NoCRequest{Case: "nope", Tech: "90nm"}); err == nil {
		t.Fatal("unknown case accepted")
	}
	if _, err := SynthesizeNoC(NoCRequest{Case: "VPROC", Tech: "nope"}); err == nil {
		t.Fatal("unknown tech accepted")
	}
}

func TestDesignLinkExplicitZeros(t *testing.T) {
	// The pointer fields distinguish "omitted" (nil → default) from
	// "explicitly zero". These cases pin the explicit-zero semantics.
	base := LinkRequest{Tech: "90nm", LengthMM: 5}

	t.Run("activity zero means zero dynamic power", func(t *testing.T) {
		req := base
		req.ActivityFactor = Float(0)
		req.DelayOptimal = true
		res, err := DesignLink(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.DynamicPower != 0 {
			t.Fatalf("idle bus reports dynamic power %g", res.DynamicPower)
		}
		if res.LeakagePower <= 0 {
			t.Fatal("leakage must survive zero activity")
		}
	})

	t.Run("power weight zero equals DelayOptimal", func(t *testing.T) {
		req := base
		req.PowerWeight = Float(0)
		weighted, err := DesignLink(req)
		if err != nil {
			t.Fatal(err)
		}
		req.PowerWeight = nil
		req.DelayOptimal = true
		optimal, err := DesignLink(req)
		if err != nil {
			t.Fatal(err)
		}
		if weighted != optimal {
			t.Fatalf("PowerWeight: Float(0) (%+v) differs from DelayOptimal (%+v)", weighted, optimal)
		}
	})

	t.Run("omitted weight uses the default, not zero", func(t *testing.T) {
		defaulted, err := DesignLink(base)
		if err != nil {
			t.Fatal(err)
		}
		req := base
		req.PowerWeight = Float(DefaultPowerWeight)
		explicit, err := DesignLink(req)
		if err != nil {
			t.Fatal(err)
		}
		if defaulted != explicit {
			t.Fatal("nil PowerWeight does not match explicit default")
		}
	})

	t.Run("rejected explicit values", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			mut  func(*LinkRequest)
		}{
			{"zero slew", func(r *LinkRequest) { r.InputSlewPS = Float(0) }},
			{"negative slew", func(r *LinkRequest) { r.InputSlewPS = Float(-50) }},
			{"NaN slew", func(r *LinkRequest) { r.InputSlewPS = Float(math.NaN()) }},
			{"zero bits", func(r *LinkRequest) { r.Bits = Int(0) }},
			{"negative bits", func(r *LinkRequest) { r.Bits = Int(-8) }},
			{"negative activity", func(r *LinkRequest) { r.ActivityFactor = Float(-0.1) }},
			{"weight at one", func(r *LinkRequest) { r.PowerWeight = Float(1) }},
			{"negative weight", func(r *LinkRequest) { r.PowerWeight = Float(-0.2) }},
		} {
			req := base
			tc.mut(&req)
			if _, err := DesignLink(req); err == nil {
				t.Errorf("%s accepted", tc.name)
			}
		}
	})

	t.Run("explicit slew changes the design point", func(t *testing.T) {
		req := base
		req.InputSlewPS = Float(DefaultInputSlewPS)
		def, err := DesignLink(req)
		if err != nil {
			t.Fatal(err)
		}
		omitted, err := DesignLink(base)
		if err != nil {
			t.Fatal(err)
		}
		if def != omitted {
			t.Fatal("nil InputSlewPS does not match explicit default")
		}
		req.InputSlewPS = Float(900)
		slow, err := DesignLink(req)
		if err != nil {
			t.Fatal(err)
		}
		if slow.Delay <= def.Delay {
			t.Fatalf("900 ps input edge (%g) not slower than %g ps default (%g)",
				slow.Delay, DefaultInputSlewPS, def.Delay)
		}
	})
}
