package main

import (
	"context"
	"fmt"
	"sort"
	"time"

	predint "repro"
	"repro/internal/buffering"
	"repro/internal/estimator"
	"repro/internal/model"
	"repro/internal/surface"
	"repro/internal/tech"
	"repro/internal/variation"
	"repro/internal/wire"
)

// fixture is the link every layer micro-measurement runs on: the 90 nm
// 5 mm link of the repository's own yield benchmarks, designed as the
// facade designs it. Its scenario sits at the 5σ target, where AIS is
// the routed rung.
type fixture struct {
	cls  *class
	tc   *tech.Technology
	seg  wire.Segment
	opts buffering.Options
	sc   *variation.LinkScenario
}

func newFixture() (*fixture, error) {
	cls, err := calibrate("90nm", 5)
	if err != nil {
		return nil, err
	}
	for _, sigma := range fixtureSigmas {
		if _, err := cls.targetPS(sigma); err != nil {
			return nil, err
		}
	}
	tc, err := tech.Lookup("90nm")
	if err != nil {
		return nil, err
	}
	coeffs, err := model.Default("90nm")
	if err != nil {
		return nil, err
	}
	f := &fixture{cls: cls, tc: tc, seg: wire.NewSegment(tc, 5e-3, wire.SWSS)}
	f.opts = buffering.Options{
		Coeffs:      coeffs,
		InputSlew:   predint.DefaultInputSlewPS * 1e-12,
		Power:       model.PowerParams{Activity: predint.DefaultActivityFactor, Freq: tc.Clock},
		PowerWeight: predint.DefaultPowerWeight,
	}
	des, err := buffering.Optimize(f.seg, f.opts)
	if err != nil {
		return nil, err
	}
	f.sc = &variation.LinkScenario{
		Base:   tc,
		Coeffs: coeffs,
		Space:  variation.DefaultSpace(),
		Spec:   model.LineSpec{Kind: des.Kind, Size: des.Size, N: des.N, Segment: f.seg, InputSlew: f.opts.InputSlew},
		Target: f.target(5),
	}
	return f, nil
}

// fixtureSigmas are the sigma levels the fixture has targets for: the
// shardable rungs', AIS's, and the sizing search's.
var fixtureSigmas = []float64{2, 2.5, 3.5, 5, estimator.PhiInv(0.99) + sizingMiss[0]}

// targetPS is the fixture's delay target at one of fixtureSigmas.
func (f *fixture) targetPS(sigma float64) float64 {
	t, ok := f.cls.targets[sigma]
	if !ok {
		panic(fmt.Sprintf("fixture has no target at %g sigma", sigma))
	}
	return t
}

func (f *fixture) target(sigma float64) float64 { return f.targetPS(sigma) * 1e-12 }

func (f *fixture) request(est string, sigma float64, samples int) predint.YieldRequest {
	return predint.YieldRequest{
		Tech: f.cls.tech, LengthMM: f.cls.lengthMM, TargetPS: predint.Float(f.targetPS(sigma)),
		Samples: predint.Int(samples), Seed: 1, Workers: 1, Estimator: est, NoSurface: true,
	}
}

// aisSamples is the AIS budget of the fixture query and of each split
// micro-loop.
const aisSamples = 4096

// layerMetrics times each layer on the fixture. checks carries the AIS
// split's reconciliation against the whole rung.
func layerMetrics(ctx context.Context) (metrics, checks map[string]float64, err error) {
	f, err := newFixture()
	if err != nil {
		return nil, nil, err
	}
	// The warm surface: one sampled answer recorded, then probed and
	// re-recorded.
	sf := predint.Surfaced{Cache: surface.New(surface.Options{})}
	warm := f.request("", 2, 4096)
	warm.NoSurface = false
	res, err := sf.LinkYieldCtx(ctx, warm)
	if err != nil {
		return nil, nil, err
	}
	// The shardable rungs' plans, and eight shards to merge.
	plans := make([]*predint.YieldShardPlan, len(scaleRungs))
	for i, r := range scaleRungs {
		if plans[i], err = predint.YieldShardPlanFor(f.request(r.estimator, r.sigmas[0], 4096)); err != nil {
			return nil, nil, err
		}
	}
	var parts []variation.Partial
	for lo := 0; lo < 4096; lo += shardSamples {
		p, _, err := plans[0].CollectCtx(ctx, lo, shardSamples)
		if err != nil {
			return nil, nil, err
		}
		parts = append(parts, p)
	}
	// The shared-sample sweep over 16 candidates, as in the repository's
	// BenchmarkLinkYieldSweep.
	ms := &variation.MultiScenario{Base: f.tc, Coeffs: f.opts.Coeffs, Space: f.sc.Space, Target: f.target(2)}
	for _, size := range []float64{6, 8, 12, 16} {
		for _, n := range []int{6, 8, 10, 12} {
			ms.Specs = append(ms.Specs, model.LineSpec{Kind: f.sc.Spec.Kind, Size: size, N: n, Segment: f.seg, InputSlew: f.opts.InputSlew})
		}
	}
	// A yield target the nominal design misses, so the search sweeps.
	so := variation.SizingOptions{
		Buffering: f.opts, Space: f.sc.Space, YieldTarget: 0.99,
		Target: f.target(estimator.PhiInv(0.99) + sizingMiss[0]),
		MC:     variation.YieldOptions{Samples: 4096, Seed: 1, Workers: 1},
	}
	collect := func(p *predint.YieldShardPlan) func() error {
		return func() error { _, _, err := p.CollectCtx(ctx, 0, 4096); return err }
	}
	planReq := f.request("mc", 2, 2048)

	steps := []struct {
		name    string
		rounds  int     // the metric is the median round
		calls   int     // calls of run per round
		perCall float64 // divides a call's ns into the metric's unit
		run     func() error
	}{
		{"predint.plan_design_us", 5, 50, 1e3, func() error { _, err := predint.YieldShardPlanFor(planReq); return err }},
		{"surface.probe_us", 5, 200, 1e3, func() error {
			if _, hit, err := sf.LinkYieldSurfaceCtx(ctx, warm); err != nil || !hit {
				return fmt.Errorf("fixture surface probe missed: %v", err)
			}
			return nil
		}},
		{"surface.record_us", 5, 200, 1e3, func() error { return sf.RecordYield(warm, res) }},
		{"variation.mc_ns_per_sample", 9, 1, 4096, collect(plans[0])},
		{"variation.qmc_ns_per_sample", 9, 1, 4096, collect(plans[1])},
		{"variation.isle_ns_per_sample", 9, 1, 4096, collect(plans[2])},
		{"variation.merge_us", 5, 50, 1e3, func() error { _, _, err := plans[0].Merge(parts, false); return err }},
		{"variation.shared_ns_per_candidate_sample", 5, 1, float64(len(ms.Specs) * 1024), func() error {
			_, err := variation.EstimateYieldsSharedCtx(ctx, ms, variation.YieldOptions{Samples: 1024, Seed: 1, Workers: 1})
			return err
		}},
		{"estimator.wcd_us", 5, 5, 1e3, func() error { _, err := variation.WCDForScenarioCtx(ctx, f.sc); return err }},
		{"buffering.optimize_us", 5, 50, 1e3, func() error { _, err := buffering.Optimize(f.seg, f.opts); return err }},
		{"buffering.candidates_us", 5, 20, 1e3, func() error { _, err := buffering.Candidates(f.seg, f.opts); return err }},
		{"sizing.run_ms", 5, 1, 1e6, func() error { _, err := variation.SizeForYieldCtx(ctx, f.tc, f.seg, so); return err }},
	}
	m := map[string]float64{}
	for _, s := range steps {
		rounds := make([]float64, s.rounds)
		for r := range rounds {
			start := time.Now()
			for i := 0; i < s.calls; i++ {
				if err := s.run(); err != nil {
					return nil, nil, fmt.Errorf("%s: %w", s.name, err)
				}
			}
			rounds[r] = float64(time.Since(start)) / float64(s.calls) / s.perCall
		}
		m[s.name] = median(rounds)
	}

	aisMetrics, ratio, err := aisSplit(ctx, f)
	if err != nil {
		return nil, nil, err
	}
	for k, v := range aisMetrics {
		m[k] = v
	}
	return m, map[string]float64{"ais.reconcile_ratio": ratio}, nil
}

// aisSplit times the AIS rung on the fixture and, separately, each
// per-sample step of its estimation stage — the draw, the mixture
// transform, the importance weight and the delay evaluation — plus one
// proposal fit. The ratio is the steps' sum, with one fit per
// adaptation stage, over the rung's own time per sample.
func aisSplit(ctx context.Context, f *fixture) (map[string]float64, float64, error) {
	const dims = variation.Dims
	req := f.request("ais", 5, aisSamples)

	// The steps' inputs: a stage's uniforms and normals, and a proposal
	// fitted on the elites of a standard-normal stage, as after the
	// first adaptation stage — the deepest tenth of a twelfth of the
	// budget, at least 32.
	u := make([]float64, aisSamples)
	eps := make([]float64, aisSamples*dims)
	z := make([]float64, aisSamples*dims)
	w := make([]float64, aisSamples)
	delays := make([]float64, aisSamples)
	st := variation.NewStream(1, 0)
	draw := func() error {
		for i := range u {
			st.Reset(1, uint64(i))
			u[i] = st.Float64()
			st.NormsInto(eps[i*dims : (i+1)*dims])
		}
		return nil
	}
	var scratch variation.Scratch
	delay := func(x []float64) error {
		for i := range delays {
			var err error
			if delays[i], err = f.sc.DelayScratch(&scratch, x[i*dims:(i+1)*dims]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := draw(); err != nil {
		return nil, 0, err
	}
	if err := delay(eps); err != nil {
		return nil, 0, err
	}
	idx := make([]int, aisSamples)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return delays[idx[a]] > delays[idx[b]] })
	elites := make([][]float64, max(aisSamples/12/10, 32))
	for j := range elites {
		elites[j] = eps[idx[j]*dims : (idx[j]+1)*dims]
	}
	fit := func() estimator.Mixture { return estimator.FitMixture(2, elites, nil, estimator.FitOptions{}) }
	mix := fit()

	steps := []struct {
		name string
		per  float64 // divides the step's time into its unit
		run  func() error
	}{
		{"estimator.ais_ns_per_sample", aisSamples, func() error {
			res, err := predint.Surfaced{}.LinkYieldCtx(ctx, req)
			if err == nil && res.Samples != aisSamples {
				err = fmt.Errorf("AIS fixture drew %d samples, want %d", res.Samples, aisSamples)
			}
			return err
		}},
		{"ais.draw_ns", aisSamples, draw},
		{"ais.fit_us", 1e3, func() error { mix = fit(); return nil }},
		{"ais.mixture_sample_ns", aisSamples, func() error {
			for i := range u {
				mix.SampleInto(u[i], eps[i*dims:(i+1)*dims], z[i*dims:(i+1)*dims])
			}
			return nil
		}},
		{"ais.weight_ns", aisSamples, func() error {
			for i := range w {
				w[i] = mix.Weight01(z[i*dims : (i+1)*dims])
			}
			return nil
		}},
		{"ais.delay_ns", aisSamples, func() error { return delay(z) }},
	}
	// Rounds interleave the whole rung with the steps, so both sides of
	// the ratio see the host at the same speed.
	times := make([][]float64, len(steps))
	for r := 0; r < 7; r++ {
		for i, s := range steps {
			start := time.Now()
			if err := s.run(); err != nil {
				return nil, 0, err
			}
			times[i] = append(times[i], float64(time.Since(start))/s.per)
		}
	}
	m := map[string]float64{}
	for i, s := range steps {
		m[s.name] = median(times[i])
	}
	// The rung refits once per adaptation stage, at most six times; the
	// sum charges all six, an upper bound.
	sum := m["ais.draw_ns"] + m["ais.mixture_sample_ns"] + m["ais.weight_ns"] + m["ais.delay_ns"] + m["ais.fit_us"]*1e3*6/aisSamples
	return m, sum / m["estimator.ais_ns_per_sample"], nil
}
