package variation

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/estimator"
	"repro/internal/model"
)

// runAISLinear runs AIS with the link's delay replaced by the linear
// form a·z over the lane's transposed draws, failing above target.
// P[a·z > t] = Φ(−t/‖a‖) exactly, so the estimate can be checked
// against a closed form.
func runAISLinear(t *testing.T, o YieldOptions, target float64, a []float64) Estimate {
	t.Helper()
	sc := testScenario(t, target)
	ms := &MultiScenario{Base: sc.Base, Coeffs: sc.Coeffs, Space: sc.Space, Specs: []model.LineSpec{sc.Spec}, Target: target}
	d, err := newDriver(context.Background(), ms, o, estimator.AIS)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	d.lk.ais.metric = func(z *[Dims][]float64, n int, out []float64) {
		for k := 0; k < n; k++ {
			var s float64
			for i := range a {
				s += a[i] * z[i][k]
			}
			out[k] = s
		}
	}
	est, err := d.runAIS(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestAISLinearCrossCheck is the satellite cross-check: AIS against
// the analytically known failure probability of a linear metric at
// 2σ, 3σ, and 4σ. The estimate must agree with Φ(−σ) well within its
// own reported error bar, and the error bar must be tight.
func TestAISLinearCrossCheck(t *testing.T) {
	a := make([]float64, Dims)
	a[0], a[2], a[5] = 2, 1, 0.5 // ‖a‖ = 2.29...
	var norm float64
	for _, v := range a {
		norm += v * v
	}
	nrm := math.Sqrt(norm)
	for _, sigma := range []float64{2, 3, 4} {
		est := runAISLinear(t, YieldOptions{Samples: 16384, Seed: 11}, sigma*nrm, a)
		want := estimator.Phi(-sigma)
		if est.FailProb <= 0 {
			t.Fatalf("σ=%g: AIS found no failures (want p=%g)", sigma, want)
		}
		if diff := math.Abs(est.FailProb - want); diff > 4*est.StdErr+0.02*want {
			t.Fatalf("σ=%g: AIS p=%g want %g (diff %g, se %g)", sigma, est.FailProb, want, diff, est.StdErr)
		}
		if est.StdErr/want > 0.25 {
			t.Fatalf("σ=%g: AIS error bar %g too loose for p=%g", sigma, est.StdErr, want)
		}
		if est.Estimator != estimator.AIS || !est.Shifted {
			t.Fatalf("σ=%g: estimate not labeled AIS/shifted: %+v", sigma, est)
		}
	}
}

// TestAISDeepTailLinear pins the headline capability: at 6σ
// (p ≈ 1e-9, far beyond any feasible plain-MC budget) AIS still lands
// within a small multiple of the true probability.
func TestAISDeepTailLinear(t *testing.T) {
	a := make([]float64, Dims)
	a[0] = 1
	est := runAISLinear(t, YieldOptions{Samples: 16384, Seed: 7}, 6, a)
	want := estimator.Phi(-6)
	if est.FailProb <= 0 {
		t.Fatalf("6σ: AIS found no failures (want p=%g)", want)
	}
	if r := est.FailProb / want; r < 0.5 || r > 2 {
		t.Fatalf("6σ: AIS p=%g is %.2f× the true %g", est.FailProb, r, want)
	}
}

// TestWCDScenarioAgainstMC cross-checks the analytic bound against
// plain Monte Carlo on the real delay model: the first-order sigma
// level must match the MC-observed sigma level within the
// certification margin the cascade relies on.
func TestWCDScenarioAgainstMC(t *testing.T) {
	sc := testScenario(t, 520e-12)
	b, err := WCDForScenarioCtx(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Reached || b.Beta <= 0 {
		t.Fatalf("bound not reached: %+v", b)
	}
	mc, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 65536, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if mc.FailProb <= 0 {
		t.Skip("target too easy for the MC budget; no failures to compare")
	}
	mcSigma := estimator.SigmaOf(mc.FailProb)
	if math.Abs(mcSigma-b.Beta) > estimator.DefaultWCDMargin {
		t.Fatalf("WCD β=%.3f vs MC sigma %.3f (p=%g): gap exceeds the certification margin", b.Beta, mcSigma, mc.FailProb)
	}
}

// TestRungDeterminismAcrossWorkers extends the engine's determinism
// contract to the new rungs: AIS and QMC estimates must be
// bit-identical at every worker count.
func TestRungDeterminismAcrossWorkers(t *testing.T) {
	for _, kind := range []estimator.Kind{estimator.AIS, estimator.QMC} {
		sc := testScenario(t, 520e-12)
		base := YieldOptions{Samples: 4096, Seed: 3, Estimator: kind}
		want, err := EstimateLinkYieldCtx(context.Background(), sc, base)
		if err != nil {
			t.Fatal(err)
		}
		if want.Estimator != kind {
			t.Fatalf("estimate labeled %q, want %q", want.Estimator, kind)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			o := base
			o.Workers = workers
			got, err := EstimateLinkYieldCtx(context.Background(), sc, o)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s workers=%d diverged:\n got %+v\nwant %+v", kind, workers, got, want)
			}
		}
	}
}

// TestQMCAgreesWithMC: on a moderate-sigma target the QMC rung and
// plain MC must agree within their combined error bars.
func TestQMCAgreesWithMC(t *testing.T) {
	sc := testScenario(t, 500e-12)
	mc, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 32768, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	qmc, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 32768, Seed: 5, Estimator: estimator.QMC})
	if err != nil {
		t.Fatal(err)
	}
	if qmc.Estimator != estimator.QMC || qmc.Shifted {
		t.Fatalf("QMC estimate mislabeled: %+v", qmc)
	}
	tol := 4*math.Hypot(mc.StdErr, qmc.StdErr) + 1e-4
	if diff := math.Abs(mc.FailProb - qmc.FailProb); diff > tol {
		t.Fatalf("QMC p=%g vs MC p=%g: diff %g > %g", qmc.FailProb, mc.FailProb, diff, tol)
	}
}

// TestDispatchRespectsExplicitKind: every explicitly requested rung
// labels its estimate, and bogus names / sigmas are rejected.
func TestDispatchRespectsExplicitKind(t *testing.T) {
	sc := testScenario(t, 520e-12)
	for _, kind := range []estimator.Kind{estimator.MC, estimator.ISLE, estimator.QMC, estimator.AIS, estimator.WCD} {
		est, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 1024, Seed: 1, Estimator: kind})
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if est.Estimator != kind {
			t.Fatalf("requested %q, estimate labeled %q", kind, est.Estimator)
		}
	}
	if _, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Estimator: estimator.Kind("bogus")}); err == nil {
		t.Fatal("unknown estimator accepted")
	}
	if _, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{TargetSigma: -1}); err == nil {
		t.Fatal("negative target sigma accepted")
	}
	if _, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{TargetSigma: math.NaN()}); err == nil {
		t.Fatal("NaN target sigma accepted")
	}
}

// TestHistoricalDefaultsUnchanged: with no estimator hints the
// dispatch must reproduce the historical MC path (the bits are pinned
// against the oracle by the legacy comparison test).
func TestHistoricalDefaultsUnchanged(t *testing.T) {
	sc := testScenario(t, 520e-12)
	mc, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 2048, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if mc.Estimator != estimator.MC || mc.Shifted {
		t.Fatalf("default path mislabeled: %+v", mc)
	}
}

// TestCascadeCertifiesWithoutSampling: an auto-routed deep-sigma query
// whose analytic bound is conclusive must answer from the certificate
// alone — zero samples drawn — in both directions (yield certified and
// yield unreachable).
func TestCascadeCertifiesWithoutSampling(t *testing.T) {
	// Generous target: the failure region is beyond the search cap, so
	// a 6σ query is certified-yield analytically.
	easy := testScenario(t, 900e-12)
	est, err := EstimateLinkYieldCtx(context.Background(), easy, YieldOptions{Samples: 4096, Seed: 1, TargetSigma: 6})
	if err != nil {
		t.Fatal(err)
	}
	if est.Estimator != estimator.WCD || est.Samples != 0 {
		t.Fatalf("easy 6σ query was not answered analytically: %+v", est)
	}
	if est.FailProb > estimator.Phi(-6) {
		t.Fatalf("certified-yield estimate p=%g above the 6σ target", est.FailProb)
	}

	// Impossible target: the nominal design already fails, β=0, so any
	// deep-sigma demand is certified unreachable.
	nom, err := easy.NominalDelay()
	if err != nil {
		t.Fatal(err)
	}
	hard := testScenario(t, nom*0.9)
	est, err = EstimateLinkYieldCtx(context.Background(), hard, YieldOptions{Samples: 4096, Seed: 1, TargetSigma: 6})
	if err != nil {
		t.Fatal(err)
	}
	if est.Estimator != estimator.WCD || est.Samples != 0 {
		t.Fatalf("impossible 6σ query was not answered analytically: %+v", est)
	}
	if est.FailProb < 0.5 {
		t.Fatalf("certified-unreachable estimate p=%g implausibly low", est.FailProb)
	}
}

// TestCascadeInconclusiveFallsThrough: when the target sigma sits
// right at the analytic bound (inside the certification margin), the
// cascade must hand the query to the routed sampling rung.
func TestCascadeInconclusiveFallsThrough(t *testing.T) {
	sc := testScenario(t, 560e-12)
	b, err := WCDForScenarioCtx(context.Background(), sc)
	if err != nil {
		t.Fatal(err)
	}
	if !b.Reached || b.Beta < wcdPrefilterSigma {
		t.Skipf("scenario bound β=%.2f below the pre-filter threshold; pick a deeper target", b.Beta)
	}
	est, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 2048, Seed: 1, TargetSigma: b.Beta})
	if err != nil {
		t.Fatal(err)
	}
	if est.Estimator == estimator.WCD || est.Samples == 0 {
		t.Fatalf("inconclusive query did not fall through to sampling: %+v", est)
	}
}
