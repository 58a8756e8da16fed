package variation

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/estimator"
)

// retiredShifts holds, per delay target of testScenario, the mean
// shift the ISLE rung used before it took its shift from the WCD
// search's first stage: a separate search with a 0.5σ gradient step
// and a 1e-3 bisection tolerance.
var retiredShifts = []struct {
	target float64
	shift  []float64
}{
	{491.5e-12, []float64{0.5480150092757222, 0.49687773825951975, 1.8033030919118527, -0.08187793542281023, -0.008441560492961573, -0.15946772600655898, 0.4201203688690786}},
	{520.7e-12, []float64{0.803577130674547, 0.7285924298576177, 2.6442580947741603, -0.12006101164925247, -0.012378210166752435, -0.23383413871986158, 0.6160399164977807}},
	{556.4e-12, []float64{1.099505235683437, 0.9969064085177584, 3.618041764406561, -0.16427509677757, -0.016936652832951683, -0.3199467107634034, 0.8429049156870831}},
	{591.7e-12, []float64{1.3767206330585218, 1.2482538302617203, 4.530249230900508, -0.20569334996462083, -0.0212068470920742, -0.4006140433823311, 1.0554243413052464}},
	{629.1e-12, []float64{1.6560746255917558, 1.5015402870818169, 5.449493977753135, -0.24743112680210214, -0.025509984026291194, -0.48190368907835746, 1.2695832610458255}},
}

// TestISLEShiftNearRetiredSearch holds isleShift to within 1e-3 of the
// retired search's shift, in norm and with cosine ≥ 0.99999.
func TestISLEShiftNearRetiredSearch(t *testing.T) {
	for _, g := range retiredShifts {
		shift, err := isleShift(context.Background(), testScenario(t, g.target))
		if err != nil {
			t.Fatal(err)
		}
		if len(shift) != Dims {
			t.Fatalf("%.1f ps: shift %v, want %d dimensions", g.target*1e12, shift, Dims)
		}
		var diff, dot, nNew, nOld float64
		for d := range shift {
			diff += (shift[d] - g.shift[d]) * (shift[d] - g.shift[d])
			dot += shift[d] * g.shift[d]
			nNew += shift[d] * shift[d]
			nOld += g.shift[d] * g.shift[d]
		}
		diff = math.Sqrt(diff)
		cos := dot / math.Sqrt(nNew*nOld)
		t.Logf("%.1f ps: |shift| %.5f, was %.5f; moved %.2g, cosine %.8f", g.target*1e12, math.Sqrt(nNew), math.Sqrt(nOld), diff, cos)
		if diff > 1e-3 || cos < 0.99999 {
			t.Errorf("%.1f ps: shift moved %.3g (cosine %.8f) from the retired search's", g.target*1e12, diff, cos)
		}
	}
}

// isleSweepSeeds is the seed count of TestISLESweepWithinNoise.
const isleSweepSeeds = 200

// retiredSweep holds, per delay target of testScenario, the mean over
// seeds 1…isleSweepSeeds of the 4096-sample ISLE failure probability
// and that mean's standard error, as the rung computed them on the
// shifts of retiredShifts.
var retiredSweep = []struct {
	target        float64
	mean, meanErr float64
}{
	{520.7e-12, 0.001973474547228352, 3.7949861078635346e-06},
	{556.4e-12, 3.829925236704015e-05, 9.644447347178859e-08},
}

// TestISLESweepWithinNoise stands in for the bits ISLE gave up when its
// shift moved to the WCD search's first crossing: over seeds
// 1…isleSweepSeeds, the mean estimate must lie within three combined
// standard errors of the old mean, and the mean StdErr the rung
// reports must match the seeds' spread to within [0.9, 1.15].
func TestISLESweepWithinNoise(t *testing.T) {
	for _, g := range retiredSweep {
		mean, sd, reported := seedSweep(t, testScenario(t, g.target), estimator.ISLE, isleSweepSeeds)
		meanErr := sd / math.Sqrt(isleSweepSeeds)
		z := (mean - g.mean) / math.Hypot(meanErr, g.meanErr)
		ratio := reported / sd
		t.Logf("%.1f ps: mean %.5g ± %.2g, was %.5g ± %.2g, z = %.2f; mean StdErr / seed sd = %.3f",
			g.target*1e12, mean, meanErr, g.mean, g.meanErr, z, ratio)
		if !(math.Abs(z) < 3) {
			t.Errorf("%.1f ps: mean %.5g ± %.2g is %.2f combined standard errors from %.5g ± %.2g",
				g.target*1e12, mean, meanErr, z, g.mean, g.meanErr)
		}
		if !(ratio >= 0.9 && ratio <= 1.15) {
			t.Errorf("%.1f ps: mean reported StdErr is %.3f of the seeds' spread, want [0.9, 1.15]", g.target*1e12, ratio)
		}
	}
}

// TestISLEShiftEdges covers the shift's fallbacks: plain Monte Carlo
// (nil) when the nominal point fails or the space has no variation, the
// WCDMaxNorm cap along the origin gradient when no crossing lies within
// it, and the context's error once it is cancelled.
func TestISLEShiftEdges(t *testing.T) {
	ctx := context.Background()
	if shift, err := isleShift(ctx, testScenario(t, 400e-12)); err != nil || shift != nil {
		t.Fatalf("failing nominal point: shift %v, err %v; want plain MC", shift, err)
	}
	flat := testScenario(t, 556.4e-12)
	flat.Space = flat.Space.Scaled(0)
	if shift, err := isleShift(ctx, flat); err != nil || shift != nil {
		t.Fatalf("zero-sigma space: shift %v, err %v; want plain MC", shift, err)
	}

	// The origin gradient does not depend on the target, so the capped
	// shift points exactly along the 629.1 ps shift.
	capped, err := isleShift(ctx, testScenario(t, 1e-9))
	if err != nil {
		t.Fatal(err)
	}
	near, err := isleShift(ctx, testScenario(t, 629.1e-12))
	if err != nil {
		t.Fatal(err)
	}
	var nCap, nNear float64
	for d := range capped {
		nCap += capped[d] * capped[d]
		nNear += near[d] * near[d]
	}
	nCap, nNear = math.Sqrt(nCap), math.Sqrt(nNear)
	if math.Abs(nCap-estimator.WCDMaxNorm) > 1e-12 {
		t.Fatalf("unreached target: |shift| = %.15g, want the cap %g", nCap, estimator.WCDMaxNorm)
	}
	for d := range capped {
		if math.Abs(capped[d]/nCap-near[d]/nNear) > 1e-12 {
			t.Fatalf("unreached target: shift %v is not along the origin gradient %v", capped, near)
		}
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := isleShift(cancelled, testScenario(t, 556.4e-12)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err %v, want context.Canceled", err)
	}
}

// TestISLEShiftMemo: the memo stores only what isleShift found. A
// cancelled search fails and leaves it empty; the next search fills it
// with isleShift's shift, bit for bit, and later reads take that shift
// without searching, even under a cancelled context. A nil shift (plain
// Monte Carlo) is remembered as found too.
func TestISLEShiftMemo(t *testing.T) {
	ctx := context.Background()
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	sc := testScenario(t, 556.4e-12)
	want, err := isleShift(ctx, sc)
	if err != nil || want == nil {
		t.Fatalf("no shift to memoize (%v); the fixture lost its teeth", err)
	}
	var m ISLEShift
	if _, err := m.get(cancelled, sc); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled search: err %v, want context.Canceled", err)
	}
	if m.found.Load() != nil {
		t.Fatal("a cancelled search stored a shift")
	}
	for _, c := range []context.Context{ctx, cancelled} {
		got, err := m.get(c, sc)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("memo shift %v, isleShift %v", got, want)
		}
		for d := range want {
			if math.Float64bits(got[d]) != math.Float64bits(want[d]) {
				t.Fatalf("memo shift %v, isleShift %v", got, want)
			}
		}
	}

	var plain ISLEShift
	failing := testScenario(t, 400e-12)
	if shift, err := plain.get(ctx, failing); err != nil || shift != nil {
		t.Fatalf("failing nominal point: shift %v, err %v; want plain MC", shift, err)
	}
	if shift, err := plain.get(cancelled, failing); err != nil || shift != nil {
		t.Fatalf("memoized plain MC: shift %v, err %v; want nil without a search", shift, err)
	}
}
