package variation

import (
	"context"
	"math"
	"testing"

	"repro/internal/buffering"
	"repro/internal/estimator"
	"repro/internal/model"
	"repro/internal/tech"
	"repro/internal/wire"
)

// testScenario designs a 5 mm 90nm link with the embedded coefficients
// and wraps it in a scenario with the given delay target.
func testScenario(t testing.TB, target float64) *LinkScenario {
	t.Helper()
	tc := tech.MustLookup("90nm")
	coeffs := model.MustDefault("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	des, err := buffering.Optimize(seg, buffering.Options{
		Coeffs:      coeffs,
		Power:       model.PowerParams{Activity: 0.15, Freq: tc.Clock},
		PowerWeight: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &LinkScenario{
		Base:   tc,
		Coeffs: coeffs,
		Space:  DefaultSpace(),
		Spec:   model.LineSpec{Kind: des.Kind, Size: des.Size, N: des.N, Segment: seg, InputSlew: 300e-12},
		Target: target,
	}
}

func TestScenarioNominalDelayMatchesDesign(t *testing.T) {
	sc := testScenario(t, 1e-9)
	nom, err := sc.NominalDelay()
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.Coeffs.LineDelay(sc.Spec)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(nom-want.Delay)/want.Delay > 1e-12 {
		t.Fatalf("nominal-draw delay %g != design delay %g", nom, want.Delay)
	}
}

// TestNominalDelayLeavesZeroDrawClean pins the contract behind the
// shared package-level zero draw: NominalDelay used to allocate a
// fresh zero slice per call; now every call reads the same array, so
// nothing downstream may ever write through the draw. A repeated call
// must also keep returning the same value.
func TestNominalDelayLeavesZeroDrawClean(t *testing.T) {
	sc := testScenario(t, 1e-9)
	first, err := sc.NominalDelay()
	if err != nil {
		t.Fatal(err)
	}
	for d, v := range zeroDraw {
		if v != 0 {
			t.Fatalf("zeroDraw[%d] = %g after NominalDelay — the shared draw was written through", d, v)
		}
	}
	again, err := sc.NominalDelay()
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Fatalf("second NominalDelay %g != first %g", again, first)
	}
}

func TestScenarioDelayRespondsToVariation(t *testing.T) {
	sc := testScenario(t, 1e-9)
	nom, err := sc.NominalDelay()
	if err != nil {
		t.Fatal(err)
	}
	// A uniformly slow corner (higher Vth, longer channel, thinner
	// narrower wire, higher rho) must be slower than nominal; the
	// mirrored fast corner must be faster.
	slow := []float64{2, 2, 2, -2, -2, -2, 2}
	fast := []float64{-2, -2, -2, 2, 2, 2, -2}
	dSlow, err := sc.Delay(slow)
	if err != nil {
		t.Fatal(err)
	}
	dFast, err := sc.Delay(fast)
	if err != nil {
		t.Fatal(err)
	}
	if !(dSlow > nom && nom > dFast) {
		t.Fatalf("corner ordering broken: slow %g, nominal %g, fast %g", dSlow, nom, dFast)
	}
}

// TestLinkYieldWorkerDeterminism is the acceptance-criterion test: a
// fixed seed returns bit-identical estimates for Workers=1 and
// Workers=8, for both estimators. Under -race it also exercises the
// concurrent sampling path.
func TestLinkYieldWorkerDeterminism(t *testing.T) {
	sc := testScenario(t, 480e-12)
	for _, kind := range []estimator.Kind{estimator.Auto, estimator.ISLE} {
		serial, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 4096, Seed: 1, Workers: 1, Estimator: kind})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 4096, Seed: 1, Workers: 8, Estimator: kind})
		if err != nil {
			t.Fatal(err)
		}
		if serial != parallel {
			t.Fatalf("%q: workers=8 diverged: %+v vs %+v", kind, parallel, serial)
		}
	}
}

// TestImportanceSamplingAgreesWithPlainMC is the estimator acceptance
// test: on a tail-yield scenario (failure probability ≲ 1e-3) the
// importance-sampling estimate must agree with a large-n plain-MC
// reference within the combined confidence interval, with measurably
// lower estimator variance at equal sample count.
func TestImportanceSamplingAgreesWithPlainMC(t *testing.T) {
	sc := testScenario(t, 545e-12) // ≈2.5e-4 failure probability
	ref, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 150000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ref.FailProb <= 0 || ref.FailProb > 2e-3 {
		t.Fatalf("reference failure probability %g not in the intended tail regime", ref.FailProb)
	}
	is, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 4096, Seed: 1, Estimator: estimator.ISLE})
	if err != nil {
		t.Fatal(err)
	}
	if !is.Shifted {
		t.Fatal("importance sampling fell back to plain MC on a tail scenario")
	}
	combined := math.Sqrt(is.StdErr*is.StdErr + ref.StdErr*ref.StdErr)
	if d := math.Abs(is.FailProb - ref.FailProb); d > 1.96*combined {
		t.Fatalf("IS %g vs MC reference %g: differ by %g, combined 95%% CI %g",
			is.FailProb, ref.FailProb, d, 1.96*combined)
	}
	// Equal-sample-count variance comparison against the hypothetical
	// plain-MC estimator at the reference probability.
	plainSE := math.Sqrt(ref.FailProb * (1 - ref.FailProb) / float64(is.Samples))
	if is.StdErr >= plainSE/2 {
		t.Fatalf("IS stderr %g not measurably below equal-n plain-MC stderr %g", is.StdErr, plainSE)
	}
	if is.VarianceReduction < 10 {
		t.Fatalf("variance reduction %g, want ≥10 on this tail", is.VarianceReduction)
	}
}

// TestImportanceSamplingFallsBackWhenFailing: when the nominal design
// already misses the target, shifting cannot help and the engine must
// fall back to plain MC rather than chase a shift.
func TestImportanceSamplingFallsBackWhenFailing(t *testing.T) {
	sc := testScenario(t, 300e-12) // well below the ~434 ps nominal delay
	est, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 1024, Seed: 1, Estimator: estimator.ISLE})
	if err != nil {
		t.Fatal(err)
	}
	if est.Shifted {
		t.Fatal("shifted despite nominal failure")
	}
	if est.FailProb < 0.9 {
		t.Fatalf("failure probability %g, want ≈1 for an unmeetable target", est.FailProb)
	}
}

func TestScenarioValidation(t *testing.T) {
	sc := testScenario(t, 480e-12)
	bad := *sc
	bad.Target = 0
	if _, err := EstimateLinkYieldCtx(context.Background(), &bad, YieldOptions{Samples: 16}); err == nil {
		t.Fatal("zero target accepted")
	}
	bad = *sc
	bad.Space.VthSigma = -1
	if _, err := EstimateLinkYieldCtx(context.Background(), &bad, YieldOptions{Samples: 16}); err == nil {
		t.Fatal("negative sigma accepted")
	}
}

// TestSizeForYield is the yield-aware-buffering acceptance test: with
// a power-leaning objective the nominal design misses the target
// outright, the yield-constrained search must pick a different design,
// and that design must achieve the requested yield when re-evaluated
// with an independent seed.
func TestSizeForYield(t *testing.T) {
	tc := tech.MustLookup("90nm")
	coeffs := model.MustDefault("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	bufOpts := buffering.Options{
		Coeffs:      coeffs,
		Power:       model.PowerParams{Activity: 0.15, Freq: tc.Clock},
		PowerWeight: 0.8, // leans on power: nominal design is slow
	}
	const (
		target      = 510e-12
		yieldTarget = 0.95
	)
	sized, err := SizeForYieldCtx(context.Background(), tc, seg, SizingOptions{
		Buffering:   bufOpts,
		Space:       DefaultSpace(),
		Target:      target,
		YieldTarget: yieldTarget,
		MC:          YieldOptions{Samples: 4096, Seed: 1, Estimator: estimator.ISLE},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sized.Resized {
		t.Fatalf("nominal design %+v already met the target — scenario lost its teeth", sized.Nominal)
	}
	if sized.Design.Size == sized.Nominal.Size && sized.Design.N == sized.Nominal.N {
		t.Fatal("resized design identical to nominal")
	}
	if sized.Estimate.Yield < yieldTarget {
		t.Fatalf("selected design's yield %g below target %g", sized.Estimate.Yield, yieldTarget)
	}
	// Independent confirmation: same design, fresh seed.
	sc := &LinkScenario{
		Base:   tc,
		Coeffs: coeffs,
		Space:  DefaultSpace(),
		Spec:   lineSpec(sized.Design, seg, bufOpts),
		Target: target,
	}
	check, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 8192, Seed: 99, Estimator: estimator.ISLE})
	if err != nil {
		t.Fatal(err)
	}
	if check.Yield < yieldTarget-3*check.StdErr-0.01 {
		t.Fatalf("independent re-check yield %g (±%g) contradicts target %g", check.Yield, check.StdErr, yieldTarget)
	}
}

func TestSizeForYieldKeepsFeasibleNominal(t *testing.T) {
	tc := tech.MustLookup("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	sized, err := SizeForYieldCtx(context.Background(), tc, seg, SizingOptions{
		Buffering: buffering.Options{
			Coeffs: model.MustDefault("90nm"),
			Power:  model.PowerParams{Activity: 0.15, Freq: tc.Clock},
		},
		Space:       DefaultSpace(),
		Target:      1 / tc.Clock, // 667 ps: loose
		YieldTarget: 0.9,
		MC:          YieldOptions{Samples: 1024, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if sized.Resized {
		t.Fatal("loose target should keep the nominal design")
	}
	if sized.Design != sized.Nominal {
		t.Fatal("unresized result must return the nominal design")
	}
}
