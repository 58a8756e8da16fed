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
// per-sample AIS kernel (scalar DelayScratch delays, one pool item per
// draw) computed them. Every AIS path must reproduce them exactly.
var aisGolden = map[string][]Estimate{
	"sigma4-seed1": {
		{FailProb: bits(0x3f0359c2a6126ad9), Yield: bits(0x3fefffb298f567b6), StdErr: bits(0x3ec660b047df91ed), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x409a5ecf118aef8d)},
	},
	"sigma4-seed2": {
		{FailProb: bits(0x3f0169c22658cc78), Yield: bits(0x3fefffba58f7669d), StdErr: bits(0x3ec8904f2b71eeb3), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x4093b1c0dd359465)},
	},
	"sigma5-seed1": {
		{FailProb: bits(0x3e95f95685275c66), Yield: bits(0x3fefffff50354bd7), StdErr: bits(0x3e603fd774500592), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x40fc65a0b1224a2a)},
	},
	"sigma5-seed2": {
		{FailProb: bits(0x3e923bf0ae68ebc1), Yield: bits(0x3fefffff6e207a8d), StdErr: bits(0x3e5d89d8deb7a98b), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x41000ac09c1cf97c)},
	},
	"sigma6-seed1": {
		{FailProb: bits(0x3e1461a7034ca189), Yield: bits(0x3fefffffff5cf2c8), StdErr: bits(0x3ddc2dfa54dd47fa), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x4183b3c357f13c45)},
	},
	"sigma6-seed2": {
		{FailProb: bits(0x3e1329ae9264ee81), Yield: bits(0x3fefffffff66b28b), StdErr: bits(0x3ddf159665e636db), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x417e72a216c6e7ea)},
	},
	// Stops early: 2558 of 8192 draws.
	"sigma5-relerr": {
		{FailProb: bits(0x3e92747d957d1861), Yield: bits(0x3fefffff6c5c1354), StdErr: bits(0x3e6cbd58490cbcb8), Samples: 2558, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x4106e13bbd094c9b)},
	},
	"sigma5-batch3": {
		{FailProb: bits(0x3e95f95685275c66), Yield: bits(0x3fefffff50354bd7), StdErr: bits(0x3e603fd774500592), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x40fc65a0b1224a2a)},
		{FailProb: bits(0x3edc3f37d0b81a6a), Yield: bits(0x3feffff1e06417a4), StdErr: bits(0x3ea42dadebd8dab4), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x40b7abf9ea321a09)},
		{FailProb: bits(0x3f2b4b1bb1c4b977), Yield: bits(0x3feffe4b4e44e3b4), StdErr: bits(0x3ef222975f20da48), Samples: 4096, Shifted: true, Estimator: estimator.AIS, VarianceReduction: bits(0x406c4fc0d8065441)},
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
