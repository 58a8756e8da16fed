package predint

// The benchmark harness: one benchmark per table and figure of the
// paper's evaluation, plus ablation benches for the design choices
// DESIGN.md calls out. Each benchmark regenerates its experiment via
// internal/experiments (the same code path as the cmd/ tools) and
// reports the headline quantities as custom metrics, so
// `go test -bench=. -benchmem` reproduces the entire evaluation.

import (
	"context"
	"math"
	"testing"

	"repro/internal/baseline"
	"repro/internal/buffering"
	"repro/internal/estimator"
	"repro/internal/experiments"
	"repro/internal/liberty"
	"repro/internal/model"
	"repro/internal/noc"
	"repro/internal/sta"
	"repro/internal/surface"
	"repro/internal/tech"
	"repro/internal/variation"
	"repro/internal/wire"
	"repro/internal/wiresize"
)

// BenchmarkFig1IntrinsicDelay regenerates Fig. 1 (intrinsic delay vs
// input slew and inverter size) and reports the shape statistics.
func BenchmarkFig1IntrinsicDelay(b *testing.B) {
	tc := tech.MustLookup("90nm")
	var res *experiments.Fig1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig1(tc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.SizeSpreadMax*1e12, "size-spread-ps")
	b.ReportMetric(res.SlewSpreadMin*1e12, "slew-spread-ps")
}

// BenchmarkTableICalibration runs the full Table I pipeline
// (characterized library → regressions) for the 90nm node.
func BenchmarkTableICalibration(b *testing.B) {
	tc := tech.MustLookup("90nm")
	lib, err := liberty.Get(tc)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := model.Calibrate(lib); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableIIValidation regenerates the Table II accuracy study
// (90nm slice) and reports the worst errors of the proposed model and
// the baselines.
func BenchmarkTableIIValidation(b *testing.B) {
	cfg := experiments.TableIIConfig{Techs: []string{"90nm"}}
	var rows []experiments.TableIIRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.TableII(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	var worstProp, worstBase float64
	for _, r := range rows {
		worstProp = math.Max(worstProp, math.Abs(r.ErrProposed))
		worstBase = math.Max(worstBase, math.Max(math.Abs(r.ErrBakoglu), math.Abs(r.ErrPamunuwa)))
	}
	b.ReportMetric(worstProp*100, "worst-prop-%")
	b.ReportMetric(worstBase*100, "worst-base-%")
}

// BenchmarkTableIIINoCSynthesis regenerates the full Table III sweep
// (both test cases, three nodes, both models) and reports the 90nm
// VPROC dynamic-power ratio.
func BenchmarkTableIIINoCSynthesis(b *testing.B) {
	var rows []experiments.TableIIIRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.TableIIICtx(context.Background(), experiments.TableIIIConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	orig, err := experiments.FindTableIII(rows, "90nm", "VPROC", "original")
	if err != nil {
		b.Fatal(err)
	}
	prop, err := experiments.FindTableIII(rows, "90nm", "VPROC", "proposed")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(prop.Metrics.LinkDynamic/orig.Metrics.LinkDynamic, "dyn-ratio")
	b.ReportMetric(prop.Metrics.AvgHops, "prop-avg-hops")
}

// BenchmarkStaggeringAblation regenerates the Section III-D buffering
// study and reports the power-saving/delay-cost tradeoff.
func BenchmarkStaggeringAblation(b *testing.B) {
	var rows []experiments.BufferingRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.BufferingStudy(experiments.BufferingConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].PowerSaving*100, "power-saving-%")
	b.ReportMetric(rows[0].DelayCost*100, "delay-cost-%")
	b.ReportMetric(rows[0].StaggerDelayGain*100, "stagger-gain-%")
}

// BenchmarkModelVsGoldenRuntime reproduces the RT column: the paper's
// model was ≥2.1× faster than sign-off analysis.
func BenchmarkModelVsGoldenRuntime(b *testing.B) {
	cfg := experiments.TableIIConfig{
		Techs:          []string{"90nm"},
		LengthsMM:      []float64{5},
		Styles:         []wire.Style{wire.SWSS},
		MeasureRuntime: true,
	}
	var rows []experiments.TableIIRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.TableII(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].RuntimeRatio, "speedup-x")
}

// BenchmarkSensitivityStudy quantifies the paper's motivating claim:
// system-level decisions move with interconnect-model accuracy. It
// reports how many extra routers a 2× delay-model error forces into
// the DVOPD network.
func BenchmarkSensitivityStudy(b *testing.B) {
	var rows []experiments.SensitivityRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Sensitivity(experiments.SensitivityConfig{})
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := rows[0], rows[len(rows)-1]
	b.ReportMetric(float64(last.Metrics.Routers-first.Metrics.Routers), "extra-routers-at-2x")
	b.ReportMetric(last.Metrics.AvgHops-first.Metrics.AvgHops, "extra-avg-hops-at-2x")
}

// --- Ablation benches for DESIGN.md's called-out design choices ---

// BenchmarkAblationResistanceCorrections quantifies the scattering +
// barrier resistance corrections: the ratio of corrected to classic
// wire resistance at minimum width.
func BenchmarkAblationResistanceCorrections(b *testing.B) {
	tc := tech.MustLookup("45nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	var ratio float64
	for i := 0; i < b.N; i++ {
		ratio = seg.Resistance() / seg.ClassicResistance()
	}
	b.ReportMetric(ratio, "R-corr-ratio")
}

// BenchmarkAblationMillerFactor compares the wire-delay model under
// λ=1.51 (worst-case SWSS), λ=0 (staggered), and coupling ignored
// entirely (the Bakoglu deficiency).
func BenchmarkAblationMillerFactor(b *testing.B) {
	tc := tech.MustLookup("90nm")
	coeffs := model.MustDefault("90nm")
	wn, wp := tc.InverterWidths(12)
	ci := coeffs.InputCap(liberty.Inverter, wn, wp)
	var worst, stag, ignored float64
	for i := 0; i < b.N; i++ {
		sw := wire.NewSegment(tc, 1e-3, wire.SWSS)
		st := wire.NewSegment(tc, 1e-3, wire.Staggered)
		worst = model.WireDelay(sw, ci)
		stag = model.WireDelay(st, ci)
		// Ignoring coupling: only the quiet ground part.
		ignored = sw.Resistance() * (0.4*sw.GroundCap() + 0.7*ci)
	}
	b.ReportMetric(worst/ignored, "worst-vs-ignored")
	b.ReportMetric(stag/ignored, "staggered-vs-ignored")
}

// BenchmarkAblationEffectiveMiller measures the *empirical* Miller
// factor from the coupled three-line simulation — the physical
// quantity the model's λ=1.51 and the golden engine's 2.0
// approximate.
func BenchmarkAblationEffectiveMiller(b *testing.B) {
	tc := tech.MustLookup("90nm")
	cfg := sta.CoupledConfig{
		Seg:      wire.NewSegment(tc, 1e-3, wire.SWSS),
		DriverR:  200,
		LoadC:    10e-15,
		InSlew:   100e-12,
		Sections: 16,
	}
	var kWorst, kQuiet float64
	var err error
	for i := 0; i < b.N; i++ {
		cfg.Mode = sta.Opposite
		kWorst, err = sta.EffectiveMiller(cfg)
		if err != nil {
			b.Fatal(err)
		}
		cfg.Mode = sta.Quiet
		kQuiet, err = sta.EffectiveMiller(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(kWorst, "k-worstcase")
	b.ReportMetric(kQuiet, "k-quiet")
}

// BenchmarkAblationSlewDependentRd compares the proposed
// slew-dependent drive resistance against the constant-R baseline on
// the same line.
func BenchmarkAblationSlewDependentRd(b *testing.B) {
	tc := tech.MustLookup("90nm")
	coeffs := model.MustDefault("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	spec := model.LineSpec{Kind: liberty.Inverter, Size: 12, N: 5, Segment: seg, InputSlew: 300e-12}
	bspec := baseline.LineSpec{Size: 12, N: 5, Segment: seg}
	var prop, bak float64
	for i := 0; i < b.N; i++ {
		t, err := coeffs.LineDelay(spec)
		if err != nil {
			b.Fatal(err)
		}
		prop = t.Delay
		d, err := baseline.LineDelay(baseline.Bakoglu, bspec)
		if err != nil {
			b.Fatal(err)
		}
		bak = d
	}
	b.ReportMetric(bak/prop, "const-vs-slewdep")
}

// BenchmarkAblationSearchStrategy compares the ternary-search
// buffering optimizer against exhaustive enumeration.
func BenchmarkAblationSearchStrategy(b *testing.B) {
	tc := tech.MustLookup("90nm")
	seg := wire.NewSegment(tc, 10e-3, wire.SWSS)
	opts := buffering.Options{
		Coeffs: model.MustDefault("90nm"),
		Power:  model.PowerParams{Activity: 0.15, Freq: tc.Clock},
	}
	b.Run("ternary", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := buffering.DelayOptimal(seg, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("exhaustive-grid", func(b *testing.B) {
		coeffs := opts.Coeffs
		for i := 0; i < b.N; i++ {
			bestDelay := math.Inf(1)
			for _, size := range buffering.ExtendedSizes {
				for n := 1; n <= 64; n++ {
					t, err := coeffs.LineDelay(model.LineSpec{
						Kind: liberty.Inverter, Size: size, N: n, Segment: seg, InputSlew: 300e-12,
					})
					if err != nil {
						b.Fatal(err)
					}
					if t.Delay < bestDelay {
						bestDelay = t.Delay
					}
				}
			}
		}
	})
}

// BenchmarkAblationAreaModels compares the regression-based area
// model against the predictive (row-height/contact-pitch) variant.
func BenchmarkAblationAreaModels(b *testing.B) {
	tc := tech.MustLookup("90nm")
	coeffs := model.MustDefault("90nm")
	var reg, pred float64
	for i := 0; i < b.N; i++ {
		wn, wp := tc.InverterWidths(12)
		reg = coeffs.RepeaterArea(liberty.Inverter, wn)
		pred = model.PredictiveArea(tc, wn, wp)
	}
	b.ReportMetric(pred/reg, "pred-vs-regression")
}

// BenchmarkAblationWireSizing quantifies what geometry freedom buys: a
// 10 mm 45nm line, minimum geometry vs the width/spacing optimizer.
func BenchmarkAblationWireSizing(b *testing.B) {
	tc := tech.MustLookup("45nm")
	o := wiresize.Options{
		Buffering: buffering.Options{
			Coeffs: model.MustDefault("45nm"),
			Power:  model.PowerParams{Activity: 0.15, Freq: tc.Clock},
		},
	}
	var best wiresize.Design
	var min buffering.Design
	var err error
	for i := 0; i < b.N; i++ {
		best, err = wiresize.OptimizeCtx(context.Background(), tc, 10e-3, wire.SWSS, o)
		if err != nil {
			b.Fatal(err)
		}
		min, err = buffering.DelayOptimal(wire.NewSegment(tc, 10e-3, wire.SWSS), o.Buffering)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((1-best.Buffer.Delay/min.Delay)*100, "delay-gain-%")
	b.ReportMetric(best.WidthMult, "width-mult")
	b.ReportMetric(best.PitchMult, "pitch-mult")
}

// BenchmarkDesignLink measures the public facade's end-to-end link
// design (the paper's "fast models for system-level designers"
// claim).
func BenchmarkDesignLink(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := DesignLink(LinkRequest{Tech: "65nm", LengthMM: 5}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrafficValidation closes the loop between the analytic NoC
// metrics and the cycle-based traffic simulation, reporting the
// latency inflation over zero-load and the worst utilization mismatch.
func BenchmarkTrafficValidation(b *testing.B) {
	tc := tech.MustLookup("90nm")
	spec := noc.DVOPD()
	var sim *noc.SimResult
	for i := 0; i < b.N; i++ {
		lm, err := noc.NewProposedModel(tc, spec.DataWidth, wire.SWSS)
		if err != nil {
			b.Fatal(err)
		}
		net, err := noc.SynthesizeCtx(context.Background(), spec, lm, noc.SynthOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if sim, err = net.Simulate(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(sim.AvgLatency*1e9, "sim-lat-ns")
	b.ReportMetric(float64(sim.PacketsDelivered), "packets")
}

// BenchmarkSynthesizeNoCVPROC measures a full VPROC synthesis under
// the proposed model.
func BenchmarkSynthesizeNoCVPROC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SynthesizeNoC(NoCRequest{Case: "VPROC", Tech: "90nm"}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLinkYield measures the Monte Carlo timing-yield engine on
// the 90nm 5mm link: both estimators, serial and fully parallel. The
// per-op time divided by 2048 is the per-sample cost of the
// perturb → rescale → evaluate path.
func BenchmarkLinkYield(b *testing.B) {
	for _, bc := range []struct {
		name      string
		estimator string
		workers   int
	}{
		{"mc-serial", "", 1},
		{"mc-parallel", "", 0},
		{"is-serial", "isle", 1},
		{"is-parallel", "isle", 0},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			req := YieldRequest{
				Tech: "90nm", LengthMM: 5,
				Samples: Int(2048), Seed: 1,
				TargetPS:  Float(520),
				Workers:   bc.workers,
				Estimator: bc.estimator,
			}
			var res YieldResult
			var err error
			for i := 0; i < b.N; i++ {
				res, err = uncached.LinkYieldCtx(context.Background(), req)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(res.Yield, "yield")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/2048, "ns/sample")
			b.ReportMetric(2048, "samples/op")
			if bc.estimator == "isle" {
				b.ReportMetric(res.VarianceReduction, "var-reduction-x")
			}
		})
	}
}

// BenchmarkLinkYieldSweep measures the cross-candidate sampling kernel
// on a 16-candidate sizing sweep of the 90nm 5mm link. "shared" scores
// every candidate in one EstimateYieldsSharedCtx pass — one draw, one
// perturbed technology, one rescaled coefficient set, and one wire
// extraction per sample serve all 16 candidates (common random
// numbers). "per-candidate" is the baseline that runs the single-link
// estimator once per candidate with the same options, paying that
// per-sample work 16 times over. ns/sample counts candidate-samples
// (samples summed over candidates), so the two sub-benchmarks are
// directly comparable; with -benchmem, allocs/op over samples/op is
// the steady-state allocation rate the kernel pins near zero.
func BenchmarkLinkYieldSweep(b *testing.B) {
	tc := tech.MustLookup("90nm")
	coeffs := model.MustDefault("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	var specs []model.LineSpec
	for _, size := range []float64{6, 8, 12, 16} {
		for _, n := range []int{6, 8, 10, 12} {
			specs = append(specs, model.LineSpec{
				Kind: liberty.Inverter, Size: size, N: n,
				Segment: seg, InputSlew: 300e-12,
			})
		}
	}
	const (
		samples = 1024
		target  = 520e-12
	)
	opts := variation.YieldOptions{Samples: samples, Seed: 1, Workers: 1}
	total := float64(len(specs) * samples)

	b.Run("shared", func(b *testing.B) {
		b.ReportAllocs()
		ms := &variation.MultiScenario{
			Base: tc, Coeffs: coeffs, Space: variation.DefaultSpace(),
			Specs: specs, Target: target,
		}
		for i := 0; i < b.N; i++ {
			if _, err := variation.EstimateYieldsSharedCtx(context.Background(), ms, opts); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/total, "ns/sample")
		b.ReportMetric(total, "samples/op")
	})
	b.Run("per-candidate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, spec := range specs {
				sc := &variation.LinkScenario{
					Base: tc, Coeffs: coeffs, Space: variation.DefaultSpace(),
					Spec: spec, Target: target,
				}
				if _, err := variation.EstimateLinkYieldCtx(context.Background(), sc, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/total, "ns/sample")
		b.ReportMetric(total, "samples/op")
	})
}

// BenchmarkLinkYieldAIS measures the adaptive-importance-sampling rung
// end-to-end: cross-entropy adaptation stages plus the self-normalized
// estimation stage. ns/sample counts every model evaluation (adaptation
// included), so it is directly comparable to the MC kernel's rate —
// the rung's overhead is proposal fitting, not slower evaluations.
// scripts/bench_yield.sh gates the rate in CI.
func BenchmarkLinkYieldAIS(b *testing.B) {
	b.ReportAllocs()
	req := YieldRequest{
		Tech: "90nm", LengthMM: 5,
		Samples: Int(4096), Seed: 1,
		TargetPS:  Float(520),
		Estimator: "ais",
		NoSurface: true,
	}
	var res YieldResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = uncached.LinkYieldCtx(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.FailProb, "fail-prob")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Samples), "ns/sample")
	b.ReportMetric(float64(res.Samples), "samples/op")
}

// BenchmarkLinkYieldQMC measures the scrambled-Sobol rung: the shared
// kernel's batching with low-discrepancy points through the inverse
// normal CDF in place of PRNG draws.
func BenchmarkLinkYieldQMC(b *testing.B) {
	b.ReportAllocs()
	req := YieldRequest{
		Tech: "90nm", LengthMM: 5,
		Samples: Int(2048), Seed: 1,
		TargetPS:  Float(520),
		Estimator: "qmc",
		NoSurface: true,
	}
	var res YieldResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = uncached.LinkYieldCtx(context.Background(), req)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.Yield, "yield")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(res.Samples), "ns/sample")
	b.ReportMetric(float64(res.Samples), "samples/op")
}

// wcdBenchScenario builds the WCD benchmark scenario: the 90nm 5mm
// link under its optimized buffering (so the nominal design passes the
// 520 ps target and the bound search actually has a distance to find).
func wcdBenchScenario(b *testing.B) *variation.LinkScenario {
	b.Helper()
	tc := tech.MustLookup("90nm")
	coeffs := model.MustDefault("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	des, err := buffering.Optimize(seg, buffering.Options{
		Coeffs:    coeffs,
		InputSlew: 300e-12,
		Power:     model.PowerParams{Activity: 0.15, Freq: tc.Clock},
	})
	if err != nil {
		b.Fatal(err)
	}
	return &variation.LinkScenario{
		Base: tc, Coeffs: coeffs, Space: variation.DefaultSpace(),
		Spec: model.LineSpec{
			Kind: des.Kind, Size: des.Size, N: des.N,
			Segment: seg, InputSlew: 300e-12,
		},
		Target: 520e-12,
	}
}

// BenchmarkLinkYieldWCDSearch measures the full worst-case-distance
// bound search — gradient march, bisection, and projection refinements
// through the closed-form delay model. Informational: this is the
// pre-filter's one-time per-candidate cost, ~a hundred model
// evaluations against the thousands a sampling rung spends.
func BenchmarkLinkYieldWCDSearch(b *testing.B) {
	sc := wcdBenchScenario(b)
	var bound estimator.Bound
	var err error
	for i := 0; i < b.N; i++ {
		bound, err = variation.WCDForScenarioCtx(context.Background(), sc)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(bound.Beta, "beta")
	b.ReportMetric(float64(bound.Evals), "model-evals")
}

// BenchmarkLinkYieldWCDPrefilter measures the certificate decision a
// deep-sigma query pays per candidate once the bound is in hand:
// Certify (does β clear the demanded sigma by the margin?) plus the
// conservative band. Pure closed-form normal math — this is what makes
// the cascade's "answer analytically, skip sampling" path effectively
// free, and scripts/bench_yield.sh gates it under 1 µs in CI.
func BenchmarkLinkYieldWCDPrefilter(b *testing.B) {
	sc := wcdBenchScenario(b)
	bound, err := variation.WCDForScenarioCtx(context.Background(), sc)
	if err != nil {
		b.Fatal(err)
	}
	var band float64
	var verdicts int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bound.Certify(6, estimator.DefaultWCDMargin) != estimator.Inconclusive {
			verdicts++
		}
		band = bound.Band(estimator.DefaultWCDMargin)
	}
	b.ReportMetric(bound.Beta, "beta")
	b.ReportMetric(band, "band")
	b.ReportMetric(float64(verdicts)/float64(b.N), "conclusive-frac")
}

// BenchmarkLinkYieldSurfaceWarm measures the warm-start serving path:
// the first query runs full Monte Carlo and memoizes its estimate, so
// every benchmarked probe (LinkYieldSurfaceCtx) is answered from the
// response surface — one plan validation, one design memo probe, one
// curve lookup. The per-op time is the warm-query latency the serving
// layer's <10 µs budget gates in CI (scripts/bench_yield.sh's surface
// ceiling).
func BenchmarkLinkYieldSurfaceWarm(b *testing.B) {
	ctx := context.Background()
	sf := Surfaced{Cache: surface.New(surface.Options{})}
	req := YieldRequest{
		Tech: "90nm", LengthMM: 5,
		Samples: Int(2048), Seed: 1,
		TargetPS: Float(520),
	}
	if _, err := sf.LinkYieldCtx(ctx, req); err != nil { // cold run: samples and records
		b.Fatal(err)
	}
	warm, hit, err := sf.LinkYieldSurfaceCtx(ctx, req)
	if err != nil {
		b.Fatal(err)
	}
	if !hit {
		b.Fatalf("surface did not warm: %+v", warm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, hit, err := sf.LinkYieldSurfaceCtx(ctx, req); err != nil || !hit {
			b.Fatalf("warm probe missed: %v", err)
		}
	}
	b.ReportMetric(warm.Yield, "yield")
}
