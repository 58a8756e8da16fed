package variation

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/estimator"
)

// wcdPinCase is one worst-case-distance search pinned by wcdPins.
type wcdPinCase struct {
	name  string
	bound func(t *testing.T) (estimator.Bound, error)
}

// wcdPinCases are the searches TestFindWCDPinned holds bit for bit:
// the linear and curved metrics of the estimator's own tests, and
// testScenario at the ≈2σ…6σ targets, below its nominal delay, in a
// zero-sigma space and at a target whose crossing lies beyond
// estimator.WCDMaxNorm.
func wcdPinCases() []wcdPinCase {
	linear := func(a []float64, c, target float64) func(*testing.T) (estimator.Bound, error) {
		return func(*testing.T) (estimator.Bound, error) {
			return estimator.FindWCD(len(a), target, func(z []float64) (float64, error) {
				s := c
				for d, v := range z {
					s += a[d] * v
				}
				return s, nil
			})
		}
	}
	link := func(target, spaceScale float64) func(*testing.T) (estimator.Bound, error) {
		return func(t *testing.T) (estimator.Bound, error) {
			sc := testScenario(t, target)
			sc.Space = sc.Space.Scaled(spaceScale)
			return WCDForScenarioCtx(context.Background(), sc)
		}
	}
	return []wcdPinCase{
		{"linear-3d", linear([]float64{1, 0, 0}, 0, 3)},
		{"linear-4d", linear([]float64{2, 1, 0.5, 0.25}, 10, 20)},
		{"linear-7d", linear([]float64{0.3, -0.7, 0.1, 0.2, -0.4, 0.6, 0.05}, 100, 102)},
		{"linear-nominal-fails", linear([]float64{1, 1}, 10, 5)},
		{"linear-beyond-cap", linear([]float64{1, 0, 0}, 0, 20)},
		{"flat", func(*testing.T) (estimator.Bound, error) {
			return estimator.FindWCD(4, 2, func([]float64) (float64, error) { return 1, nil })
		}},
		{"curved", func(*testing.T) (estimator.Bound, error) {
			return estimator.FindWCD(2, 3, func(z []float64) (float64, error) { return z[0] + 0.1*z[1]*z[1], nil })
		}},
		{"link-491.5ps", link(491.5e-12, 1)},
		{"link-520.7ps", link(520.7e-12, 1)},
		{"link-556.4ps", link(556.4e-12, 1)},
		{"link-591.7ps", link(591.7e-12, 1)},
		{"link-629.1ps", link(629.1e-12, 1)},
		{"link-below-nominal", link(400e-12, 1)},
		{"link-zero-sigma", link(556.4e-12, 0)},
		{"link-beyond-cap", link(1e-9, 1)},
	}
}

// wcdPin is a Bound with its floats as IEEE-754 bits.
type wcdPin struct {
	beta, failProb uint64
	direction      []uint64
	evals          int
	reached        bool
}

func pinOf(b estimator.Bound) wcdPin {
	p := wcdPin{beta: math.Float64bits(b.Beta), failProb: math.Float64bits(b.FailProb), evals: b.Evals, reached: b.Reached}
	for _, v := range b.Direction {
		p.direction = append(p.direction, math.Float64bits(v))
	}
	return p
}

// wcdPins holds every Bound field of wcdPinCases as FindWCD computes
// it: Beta, FailProb and Direction as IEEE-754 bits, Evals and
// Reached. The ISLE shift reuses the search's first stage
// (estimator.FirstCrossing), so these pins are what keeps that sharing
// from moving the bound.
var wcdPins = map[string]wcdPin{
	"linear-3d":            {0x4008000000000000, 0x3f561de1f985b5dc, []uint64{0x3ff0000000000000, 0x0000000000000000, 0x0000000000000000}, 48, true},                                                                                  // β=3 p=0.00135
	"linear-4d":            {0x40115ac000000000, 0x3ede118f011de87c, []uint64{0x3febc46092eb3118, 0x3fdbc46092eb3118, 0x3fcbc46092eb3118, 0x3fbbc46092eb3118}, 56, true},                                                              // β=4.33862 p=7.169e-06
	"linear-7d":            {0x3ffdcf0000000000, 0x3f9ffa5eaeaa056d, []uint64{0x3fd1e279469633c2, 0xbfe4dd8d7d049079, 0x3fb7d8a1b372f4a5, 0x3fc7d8a1b372ed31, 0xbfd7d8a1b372ed31, 0x3fe1e279469633c2, 0x3fa7d8a1b372f4a5}, 62, true},  // β=1.86304 p=0.03123
	"linear-nominal-fails": {0x0000000000000000, 0x3fe0000000000000, nil, 1, true},                                                                                                                                                    // β=0 p=0.5
	"linear-beyond-cap":    {0x4020000000000000, 0x3cc669d2c90d55f2, nil, 23, false},                                                                                                                                                  // β=8 p=6.221e-16
	"flat":                 {0x4020000000000000, 0x3cc669d2c90d55f2, nil, 9, false},                                                                                                                                                   // β=8 p=6.221e-16
	"curved":               {0x4008000000000000, 0x3f561de1f985b5dc, []uint64{0x3ff0000000000000, 0x0000000000000000}, 44, true},                                                                                                      // β=3 p=0.00135
	"link-491.5ps":         {0x3ffffee1e79e7ca2, 0x3f974fac5c42bb93, []uint64{0x3fd29f19af66b522, 0x3fd1bd59aab1c2ca, 0x3fec8b58ef436f96, 0xbf9d343fd04f6171, 0x3f7ffe5bad877cea, 0xbfb39d54c59e8b32, 0x3fc8509e5b618ad7}, 93, true},  // β=1.99973 p=0.02276
	"link-520.7ps":         {0x40076f31aa5339d6, 0x3f5bd4b786f834ac, []uint64{0x3fd30e37efa2dc13, 0x3fd2a44e9bd0ee4e, 0x3fec63a4cfe05fc0, 0xbf98b2cac602e57d, 0x3f88bebe2c2dcc73, 0xbfb344fb80c906d1, 0x3fc74569de1ee330}, 94, true},  // β=2.92929 p=0.001699
	"link-556.4ps":         {0x401000baeddbfcd0, 0x3f008e0d41e8f255, []uint64{0x3fd372d92a970d34, 0x3fd3eab375b9e281, 0x3fec2eecf0ffc9b7, 0xbf8b62c76ac9b3b4, 0x3f93f8d148533b1e, 0xbfb2a89a3b69a8ba, 0x3fc5e4a9d48e220b}, 130, true}, // β=4.00071 p=3.158e-05
	"link-591.7ps":         {0x4013fee0288b1265, 0x3e9358c253a7772f, []uint64{0x3fd3b846273d3a0b, 0x3fd515d924f4ac61, 0x3febf9eac0aa6b55, 0xbf80b3b3aefb1360, 0x3f97fef42530d998, 0xbfb231648b6f944f, 0x3fc4d8d40035c8f8}, 132, true}, // β=4.9989 p=2.883e-07
	"link-629.1ps":         {0x4017fec438365275, 0x3e11135d4ddac10c, []uint64{0x3fd3df76b8b3d582, 0x3fd658117610e337, 0x3febc047ca22c115, 0xbf711b71b3463b1e, 0x3f9ae494ebf7b7aa, 0xbfb1b62c345958a4, 0x3fc3e19cae26a297}, 134, true}, // β=5.9988 p=9.939e-10
	"link-below-nominal":   {0x0000000000000000, 0x3fe0000000000000, nil, 1, true},                                                                                                                                                    // β=0 p=0.5
	"link-zero-sigma":      {0x4020000000000000, 0x3cc669d2c90d55f2, nil, 15, false},                                                                                                                                                  // β=8 p=6.221e-16
	"link-beyond-cap":      {0x4020000000000000, 0x3cc669d2c90d55f2, nil, 31, false},                                                                                                                                                  // β=8 p=6.221e-16
}

// TestFindWCDPinned holds FindWCD to wcdPins bit for bit.
func TestFindWCDPinned(t *testing.T) {
	cases := wcdPinCases()
	if len(cases) != len(wcdPins) {
		t.Fatalf("%d cases, %d pins", len(cases), len(wcdPins))
	}
	for _, c := range cases {
		want, ok := wcdPins[c.name]
		if !ok {
			t.Fatalf("%s: no pin", c.name)
		}
		b, err := c.bound(t)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := pinOf(b); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: bound moved:\n got %+v (β=%.17g)\nwant %+v (β=%.17g)", c.name, got, b.Beta, want, math.Float64frombits(want.beta))
		}
	}
}
