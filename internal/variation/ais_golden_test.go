package variation

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/estimator"
	"repro/internal/model"
)

// aisGoldenCase is one pinned AIS query; run returns its estimates at a
// worker count.
type aisGoldenCase struct {
	name string
	run  func(workers int) ([]Estimate, error)
}

// aisGoldenCases are the queries aisGolden pins: the testScenario link
// at the delay targets whose worst-case distance is ≈4σ, 5σ and 6σ,
// each at two seeds; a RelErr run that stops early; and a
// three-candidate EstimateYieldsSharedCtx batch.
func aisGoldenCases(t testing.TB) []aisGoldenCase {
	single := func(sc *LinkScenario, o YieldOptions) func(int) ([]Estimate, error) {
		return func(workers int) ([]Estimate, error) {
			o.Workers = workers
			e, err := EstimateLinkYieldCtx(context.Background(), sc, o)
			return []Estimate{e}, err
		}
	}
	var cases []aisGoldenCase
	for _, tg := range []struct {
		sigma  int
		target float64
	}{{4, 556.4e-12}, {5, 591.7e-12}, {6, 629.1e-12}} {
		for _, seed := range []uint64{1, 2} {
			cases = append(cases, aisGoldenCase{
				fmt.Sprintf("sigma%d-seed%d", tg.sigma, seed),
				single(testScenario(t, tg.target), YieldOptions{Samples: 4096, Seed: seed, Estimator: estimator.AIS}),
			})
		}
	}
	sc := testScenario(t, 591.7e-12)
	cases = append(cases, aisGoldenCase{"sigma5-relerr",
		single(sc, YieldOptions{Samples: 8192, Seed: 1, RelErr: 0.2, Estimator: estimator.AIS})})
	ms := &MultiScenario{
		Base: sc.Base, Coeffs: sc.Coeffs, Space: sc.Space, Target: sc.Target,
		Specs: []model.LineSpec{sc.Spec, sc.Spec, sc.Spec},
	}
	ms.Specs[1].Size *= 0.8
	ms.Specs[2].N++
	cases = append(cases, aisGoldenCase{"sigma5-batch3", func(workers int) ([]Estimate, error) {
		return EstimateYieldsSharedCtx(context.Background(), ms, YieldOptions{Samples: 4096, Seed: 1, Estimator: estimator.AIS, Workers: workers})
	}})
	return cases
}

func bits(u uint64) float64 { return math.Float64frombits(u) }

// aisGolden holds the estimates of aisGoldenCases bit for bit, as the
// lane kernel computes them from ziggurat draws with the closed-form
// importance weight. Every AIS path must reproduce them exactly.
var aisGolden = map[string][]Estimate{
	"sigma4-seed1": {
		{FailProb: bits(0x3f03efbf13c72148), Yield: bits(0x3fefffb04103b0e3), StdErr: bits(0x3ec948e789e200b2), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x409547cdc6285996)},
	},
	"sigma4-seed2": {
		{FailProb: bits(0x3f029970c9e30f9e), Yield: bits(0x3fefffb59a3cd874), StdErr: bits(0x3eccada7dcefc571), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x408edd8c67bf3ff7)},
	},
	"sigma5-seed1": {
		{FailProb: bits(0x3e9810c8bf287710), Yield: bits(0x3fefffff3f79ba07), StdErr: bits(0x3e600992732d0d4c), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x4101f4d247db9a57)},
	},
	"sigma5-seed2": {
		{FailProb: bits(0x3e9a945eb0770d6f), Yield: bits(0x3fefffff2b5d0a7c), StdErr: bits(0x3e62aee6f8811a03), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x40fd39c30cc92107)},
	},
	"sigma6-seed1": {
		{FailProb: bits(0x3e1583744ab3436d), Yield: bits(0x3fefffffff53e45e), StdErr: bits(0x3de4749b001bd93f), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x4173bbd94630fc33)},
	},
	"sigma6-seed2": {
		{FailProb: bits(0x3e1a6122418d59d0), Yield: bits(0x3fefffffff2cf6ee), StdErr: bits(0x3e0088a5e87a4202), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x414284c8c10a5be6)},
	},
	// Stops early: 2814 of 8192 draws.
	"sigma5-relerr": {
		{FailProb: bits(0x3e9376f35209b551), Yield: bits(0x3fefffff64486570), StdErr: bits(0x3e69b1c2c7fc8184), Samples: 2814, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x41042082c4607cf9)},
	},
	"sigma5-batch3": {
		{FailProb: bits(0x3e9810c8bf287710), Yield: bits(0x3fefffff3f79ba07), StdErr: bits(0x3e600992732d0d4c), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x4101f4d247db9a57)},
		{FailProb: bits(0x3eda68aa98c89bbb), Yield: bits(0x3feffff2cbaab39c), StdErr: bits(0x3ea74716d28eb4e4), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x40b0a165fbcf4ec8)},
		{FailProb: bits(0x3f2d09583bf6d506), Yield: bits(0x3feffe2f6a7c4093), StdErr: bits(0x3ef215844f29ecb9), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x406e4a257d2f02a2)},
	},
}

// TestAISGolden pins AIS estimates against aisGolden at workers 1, 4
// and GOMAXPROCS.
func TestAISGolden(t *testing.T) {
	for _, c := range aisGoldenCases(t) {
		want, ok := aisGolden[c.name]
		if !ok {
			t.Fatalf("%s: no golden estimates", c.name)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			got, err := c.run(workers)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s: %d estimates, want %d", c.name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s workers=%d candidate %d:\n got %+v\nwant %+v", c.name, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// aisSweepSeeds is the seed count of TestAISMatchesBoxMullerSweep:
// seeds 1 through aisSweepSeeds.
const aisSweepSeeds = 150

// boxMullerSweep holds, per delay target of testScenario, the mean
// over seeds 1…aisSweepSeeds of the 4096-sample AIS failure
// probability and that mean's standard error (the seeds' standard
// deviation over √aisSweepSeeds), as the rung computed them while it
// drew Box–Muller normals.
var boxMullerSweep = []struct {
	sigma         int
	target        float64
	mean, meanErr float64
}{
	{4, 556.4e-12, 3.89383e-05, 7.13886e-07},
	{5, 591.7e-12, 3.59693e-07, 3.52495e-09},
}

// aisSweep runs 4096-sample AIS on sc at seeds 1…aisSweepSeeds and
// returns the estimates' mean, their standard deviation and the mean
// StdErr the rung reported.
func aisSweep(t *testing.T, sc *LinkScenario) (mean, sd, reported float64) {
	t.Helper()
	ps := make([]float64, 0, aisSweepSeeds)
	for seed := uint64(1); seed <= aisSweepSeeds; seed++ {
		e, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 4096, Seed: seed, Estimator: estimator.AIS})
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, e.FailProb)
		mean += e.FailProb
		reported += e.StdErr
	}
	n := float64(len(ps))
	mean /= n
	reported /= n
	for _, p := range ps {
		sd += (p - mean) * (p - mean)
	}
	return mean, math.Sqrt(sd / (n - 1)), reported
}

// TestAISMatchesBoxMullerSweep stands in for the bits the rung gave up
// when it moved from Box–Muller to ziggurat normals: at the ≈4σ and
// ≈5σ targets, the mean of its estimates over seeds 1…aisSweepSeeds
// must lie within three combined standard errors of the Box–Muller
// mean at the same seeds. It logs how the seeds' spread compares with
// the StdErr the rung reports.
func TestAISMatchesBoxMullerSweep(t *testing.T) {
	for _, g := range boxMullerSweep {
		mean, sd, reported := aisSweep(t, testScenario(t, g.target))
		meanErr := sd / math.Sqrt(aisSweepSeeds)
		z := (mean - g.mean) / math.Hypot(meanErr, g.meanErr)
		t.Logf("sigma%d: mean %.4g ± %.2g, Box–Muller %.4g ± %.2g, z = %.2f; seed sd / mean StdErr = %.3f",
			g.sigma, mean, meanErr, g.mean, g.meanErr, z, sd/reported)
		if !(math.Abs(z) < 3) {
			t.Fatalf("sigma%d: mean %.4g ± %.2g is %.2f combined standard errors from the Box–Muller mean %.4g ± %.2g",
				g.sigma, mean, meanErr, z, g.mean, g.meanErr)
		}
	}
}
