package variation

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/estimator"
	"repro/internal/liberty"
	"repro/internal/model"
	"repro/internal/tech"
	"repro/internal/wire"
)

// legacyLinkYield re-implements the historical one-sample-at-a-time
// estimator exactly as EstimateLinkYieldCtx computed it before the shared
// batched kernel: runOracle over LinkScenario.Delay, with the
// importance-sampling shift isleShift searches when the isle rung is
// pinned.
// The kernel tests pin bit-identity against this reference.
func legacyLinkYield(t *testing.T, sc *LinkScenario, o YieldOptions) Estimate {
	t.Helper()
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	var shift []float64
	if o.Estimator == estimator.ISLE {
		var err error
		shift, err = isleShift(context.Background(), sc)
		if err != nil {
			t.Fatal(err)
		}
	}
	est, err := runOracle(o, Dims, shift, func(i int, z []float64) (bool, error) {
		d, err := sc.Delay(z)
		if err != nil {
			return false, err
		}
		return d > sc.Target, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestSharedKernelBitIdenticalToLegacy is the determinism acceptance
// test for the batched kernel: for plain Monte Carlo and importance
// sampling, with and without the stopping rule, the shared-scratch
// path returns the bit-identical Estimate the per-sample path produced,
// at every worker count.
func TestSharedKernelBitIdenticalToLegacy(t *testing.T) {
	for _, c := range []struct {
		name   string
		target float64
		opts   YieldOptions
	}{
		{"mc", 480e-12, YieldOptions{Samples: 2048, Seed: 3}},
		{"mc-relerr", 480e-12, YieldOptions{Samples: 8192, Seed: 3, RelErr: 0.2}},
		{"is", 545e-12, YieldOptions{Samples: 2048, Seed: 3, Estimator: estimator.ISLE}},
	} {
		sc := testScenario(t, c.target)
		want := legacyLinkYield(t, sc, c.opts)
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			o := c.opts
			o.Workers = workers
			got, err := EstimateLinkYieldCtx(context.Background(), sc, o)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s workers=%d: kernel diverged from legacy path:\n got %+v\nwant %+v", c.name, workers, got, want)
			}
		}
	}
}

// sweepSpecs builds a small sizing sweep: candidate repeatings of the
// same 90nm 5mm segment.
func sweepSpecs(seg wire.Segment) []model.LineSpec {
	var specs []model.LineSpec
	for _, c := range []struct {
		size float64
		n    int
	}{{8, 10}, {12, 8}, {16, 12}, {6, 14}} {
		specs = append(specs, model.LineSpec{
			Kind: liberty.Inverter, Size: c.size, N: c.n,
			Segment: seg, InputSlew: 300e-12,
		})
	}
	return specs
}

// TestSharedSweepMatchesPerCandidate pins the kernel's core contract:
// element c of EstimateYieldsSharedCtx is bit-identical to a standalone
// EstimateLinkYieldCtx of candidate c with the same options — common
// random numbers change the cost, not the answer. Covered for both
// estimators, with a per-candidate stopping rule in play, serial and
// parallel.
func TestSharedSweepMatchesPerCandidate(t *testing.T) {
	tc := tech.MustLookup("90nm")
	coeffs := model.MustDefault("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	specs := sweepSpecs(seg)
	const target = 500e-12
	for _, kind := range []estimator.Kind{estimator.Auto, estimator.ISLE} {
		for _, workers := range []int{1, 8} {
			o := YieldOptions{Samples: 2048, Seed: 1, Workers: workers, RelErr: 0.1, Estimator: kind}
			ms := &MultiScenario{Base: tc, Coeffs: coeffs, Space: DefaultSpace(), Specs: specs, Target: target}
			ests, err := EstimateYieldsSharedCtx(context.Background(), ms, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(ests) != len(specs) {
				t.Fatalf("%d estimates for %d candidates", len(ests), len(specs))
			}
			for c := range specs {
				sc := &LinkScenario{Base: tc, Coeffs: coeffs, Space: DefaultSpace(), Spec: specs[c], Target: target}
				want, err := EstimateLinkYieldCtx(context.Background(), sc, o)
				if err != nil {
					t.Fatal(err)
				}
				if ests[c] != want {
					t.Errorf("%q workers=%d candidate %d: shared %+v != standalone %+v", kind, workers, c, ests[c], want)
				}
			}
		}
	}
}

func TestMultiScenarioValidation(t *testing.T) {
	tc := tech.MustLookup("90nm")
	coeffs := model.MustDefault("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	ok := MultiScenario{Base: tc, Coeffs: coeffs, Space: DefaultSpace(), Specs: sweepSpecs(seg), Target: 500e-12}
	for name, mutate := range map[string]func(*MultiScenario){
		"nil-base":       func(ms *MultiScenario) { ms.Base = nil },
		"zero-target":    func(ms *MultiScenario) { ms.Target = 0 },
		"no-specs":       func(ms *MultiScenario) { ms.Specs = nil },
		"bad-spec":       func(ms *MultiScenario) { ms.Specs[1].Size = 0 },
		"negative-sigma": func(ms *MultiScenario) { ms.Space.VthSigma = -1 },
	} {
		ms := ok
		ms.Specs = append([]model.LineSpec(nil), ok.Specs...)
		mutate(&ms)
		if _, err := EstimateYieldsSharedCtx(context.Background(), &ms, YieldOptions{Samples: 16}); err == nil {
			t.Errorf("%s: invalid multi-scenario accepted", name)
		}
	}
	// A candidate off candidate 0's wire is named in the error.
	ms := ok
	ms.Specs = append([]model.LineSpec(nil), ok.Specs...)
	ms.Specs[2].Segment = wire.NewSegment(tc, 5e-3, wire.Shielded)
	_, err := EstimateYieldsSharedCtx(context.Background(), &ms, YieldOptions{Samples: 16})
	if want := "variation: candidate 2 is not on candidate 0's segment"; err == nil || err.Error() != want {
		t.Errorf("second segment: got %v, want %q", err, want)
	}
}

// TestSharedKernelSteadyStateAllocs is the zero-allocation acceptance
// guard: after the one-time setup, the sampling loop must not allocate.
// The whole-run allocation count divided by the candidate-sample count
// therefore has to sit far below one (the setup amortizes to ~0.01
// here); any per-sample allocation sneaking back into the hot path
// pushes the ratio past 1 immediately.
func TestSharedKernelSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	tc := tech.MustLookup("90nm")
	coeffs := model.MustDefault("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	specs := sweepSpecs(seg)
	const samples = 2048
	for _, c := range []struct {
		name  string
		specs []model.LineSpec
	}{
		{"single-candidate", specs[:1]},
		{"sweep", specs},
	} {
		ms := &MultiScenario{Base: tc, Coeffs: coeffs, Space: DefaultSpace(), Specs: c.specs, Target: 500e-12}
		o := YieldOptions{Samples: samples, Seed: 1, Workers: 1}
		var runErr error
		allocs := testing.AllocsPerRun(1, func() {
			_, runErr = EstimateYieldsSharedCtx(context.Background(), ms, o)
		})
		if runErr != nil {
			t.Fatal(runErr)
		}
		perSample := allocs / float64(samples*len(c.specs))
		if perSample > 0.05 {
			t.Errorf("%s: %.0f allocations over %d candidate-samples (%.3f/sample) — the steady path is allocating",
				c.name, allocs, samples*len(c.specs), perSample)
		}
	}
}

// TestAISRunAllocs guards the AIS rung's per-run allocations: its
// per-sample buffers and per-worker scratch come from pools, so a run
// allocates only its per-stage refits and the driver's fixed setup.
func TestAISRunAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	// A run measures ~45 allocations; per-stage draw buffers and
	// per-run sample buffers would push it past 80.
	const ceiling = 60
	sc := testScenario(t, 520e-12)
	o := YieldOptions{Samples: 4096, Seed: 1, Workers: 1, Estimator: estimator.AIS}
	var runErr error
	allocs := testing.AllocsPerRun(3, func() {
		_, runErr = EstimateLinkYieldCtx(context.Background(), sc, o)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if allocs > ceiling {
		t.Errorf("%.0f allocations per AIS run, want at most %d", allocs, ceiling)
	}
}

// TestRunBatchSteadyStateAllocs guards the oracle the same way: the
// production fold and samplers it drives over per-worker scratch must
// amortize to (far) less than one allocation per sample.
func TestRunBatchSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are meaningless under -race")
	}
	const samples = 8192
	o := YieldOptions{Samples: samples, Seed: 1, Workers: 1}
	tr := func(i int, z []float64) (bool, error) { return z[0] > 2, nil }
	var runErr error
	allocs := testing.AllocsPerRun(1, func() {
		_, runErr = runOracle(o, Dims, nil, tr)
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if perSample := allocs / samples; perSample > 0.05 {
		t.Errorf("%.0f allocations over %d samples (%.3f/sample)", allocs, samples, perSample)
	}
}
