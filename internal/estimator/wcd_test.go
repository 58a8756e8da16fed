package estimator

import (
	"errors"
	"math"
	"testing"
)

// linearMetric builds a·z + c: the failure surface a·z + c ≥ target is
// a hyperplane, whose exact worst-case distance is (target−c)/‖a‖.
func linearMetric(a []float64, c float64) Metric {
	return func(z []float64) (float64, error) {
		s := c
		for d, v := range z {
			s += a[d] * v
		}
		return s, nil
	}
}

func TestFindWCDLinearExact(t *testing.T) {
	for _, tc := range []struct {
		a      []float64
		c, tgt float64
	}{
		{[]float64{1, 0, 0}, 0, 3},
		{[]float64{2, 1, 0.5, 0.25}, 10, 20},
		{[]float64{0.3, -0.7, 0.1, 0.2, -0.4, 0.6, 0.05}, 100, 102},
	} {
		var norm float64
		for _, v := range tc.a {
			norm += v * v
		}
		want := (tc.tgt - tc.c) / math.Sqrt(norm)
		w, err := FindWCD(len(tc.a), tc.tgt, linearMetric(tc.a, tc.c))
		if err != nil {
			t.Fatal(err)
		}
		if !w.Reached {
			t.Fatalf("linear surface at β=%.3f not reached", want)
		}
		if math.Abs(w.Beta-want) > 5e-3 {
			t.Fatalf("β = %.5f, want %.5f", w.Beta, want)
		}
		if math.Abs(w.FailProb-Phi(-want)) > 1e-3*Phi(-want)+1e-12 {
			t.Fatalf("FailProb = %g, want Φ(−%.4f) = %g", w.FailProb, want, Phi(-want))
		}
		// The minimum-norm direction of a hyperplane is a/‖a‖.
		for d, v := range tc.a {
			if math.Abs(w.Direction[d]-v/math.Sqrt(norm)) > 1e-2 {
				t.Fatalf("direction[%d] = %.4f, want %.4f", d, w.Direction[d], v/math.Sqrt(norm))
			}
		}
	}
}

func TestFindWCDNominalFailure(t *testing.T) {
	w, err := FindWCD(2, 5, linearMetric([]float64{1, 1}, 10))
	if err != nil {
		t.Fatal(err)
	}
	if w.Beta != 0 || w.FailProb != 0.5 || !w.Reached {
		t.Fatalf("nominal failure: %+v", w)
	}
}

func TestFindWCDUnreachable(t *testing.T) {
	// Failure surface at 20σ: beyond the 8σ search cap.
	w, err := FindWCD(3, 20, linearMetric([]float64{1, 0, 0}, 0))
	if err != nil {
		t.Fatal(err)
	}
	if w.Reached {
		t.Fatal("a 20σ surface should not be reached")
	}
	if w.Beta != WCDMaxNorm {
		t.Fatalf("unreached β = %g, want the cap %g", w.Beta, WCDMaxNorm)
	}
}

func TestFindWCDFlatMetric(t *testing.T) {
	flat := func(z []float64) (float64, error) { return 1, nil }
	w, err := FindWCD(4, 2, flat)
	if err != nil {
		t.Fatal(err)
	}
	if w.Reached || w.Beta != WCDMaxNorm {
		t.Fatalf("flat metric: %+v", w)
	}
}

func TestFindWCDCurvedRefinement(t *testing.T) {
	// metric = z0 + 0.1·z1² with target 3: the true minimum-norm point
	// is near (3, 0), β ≈ 3; a plain gradient march already lands
	// there, but the HL–RF rounds must not make it worse.
	metric := func(z []float64) (float64, error) {
		return z[0] + 0.1*z[1]*z[1], nil
	}
	w, err := FindWCD(2, 3, metric)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Reached || math.Abs(w.Beta-3) > 0.05 {
		t.Fatalf("curved β = %.4f, want ≈3", w.Beta)
	}
}

func TestFindWCDPropagatesError(t *testing.T) {
	boom := errors.New("model exploded")
	calls := 0
	metric := func(z []float64) (float64, error) {
		calls++
		if calls > 3 {
			return 0, boom
		}
		return 0, nil
	}
	if _, err := FindWCD(2, 1, metric); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the metric's", err)
	}
}

func TestFindWCDRejectsBadDims(t *testing.T) {
	if _, err := FindWCD(0, 1, linearMetric(nil, 0)); err == nil {
		t.Fatal("dims=0 accepted")
	}
}

func TestCertify(t *testing.T) {
	for _, tc := range []struct {
		beta    float64
		reached bool
		sigma   float64
		want    Verdict
	}{
		{6.6, true, 6, CertifiedYield},
		{8, false, 6, CertifiedYield}, // unreached cap still clears 6+0.5
		{5.4, true, 6, CertifiedUnreachable},
		{6.2, true, 6, Inconclusive},
		{5.8, true, 6, Inconclusive},
		{7.9, false, 7.6, Inconclusive}, // unreached cap cannot certify-unreachable
		{0, true, 3, CertifiedUnreachable},
	} {
		w := Bound{Beta: tc.beta, Reached: tc.reached}
		if got := w.Certify(tc.sigma, 0); got != tc.want {
			t.Fatalf("Certify(β=%g reached=%v, σ=%g) = %v, want %v",
				tc.beta, tc.reached, tc.sigma, got, tc.want)
		}
	}
}

func TestVerdictString(t *testing.T) {
	if CertifiedYield.String() != "certified-yield" ||
		CertifiedUnreachable.String() != "certified-unreachable" ||
		Inconclusive.String() != "inconclusive" {
		t.Fatal("verdict strings changed")
	}
}

func TestBandCoversMargin(t *testing.T) {
	w := Bound{Beta: 4}
	se := w.Band(0)
	// The 95% interval around Φ(−β) must reach the probabilities at
	// β ± margin.
	lo, hi := w.FailProbAt(4.5), w.FailProbAt(3.5)
	if Phi(-4)+1.96*se < hi-1e-15 || Phi(-4)-1.96*se > lo+1e-15 {
		t.Fatalf("band %g does not cover [Φ(−4.5), Φ(−3.5)]", se)
	}
}

// FailProbAt is a test helper: the first-order probability at an
// arbitrary distance.
func (w Bound) FailProbAt(beta float64) float64 { return Phi(-beta) }

// TestFirstCrossingEdges covers the first stage's results on its own:
// the crossing and gradient direction of a reachable surface, no
// direction for a failing nominal point or a flat metric, the cap along
// the gradient when the surface lies beyond it, the metric's error and
// a bad dimension.
func TestFirstCrossingEdges(t *testing.T) {
	a := []float64{2, 1, 0.5, 0.25}
	norm := math.Sqrt(4 + 1 + 0.25 + 0.0625)
	for _, tc := range []struct {
		name    string
		target  float64
		beta    float64
		dir     bool
		reached bool
	}{
		{"reachable", 20, 10 / norm, true, true},
		{"nominal-fails", 5, 0, false, true},
		{"beyond-cap", 40, WCDMaxNorm, true, false},
	} {
		b, err := FirstCrossing(len(a), tc.target, linearMetric(a, 10))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if b.Reached != tc.reached || math.Abs(b.Beta-tc.beta) > 1e-4 || (b.Direction != nil) != tc.dir {
			t.Fatalf("%s: %+v, want β %.5f, reached %v, direction %v", tc.name, b, tc.beta, tc.reached, tc.dir)
		}
		for d, v := range b.Direction {
			if math.Abs(v-a[d]/norm) > 1e-12 {
				t.Fatalf("%s: direction %v, want the gradient a/|a|", tc.name, b.Direction)
			}
		}
	}

	flat := func(z []float64) (float64, error) { return 1, nil }
	if b, err := FirstCrossing(4, 2, flat); err != nil || b.Direction != nil || b.Reached {
		t.Fatalf("flat metric: %+v, %v", b, err)
	}

	boom := errors.New("model exploded")
	calls := 0
	failing := func(z []float64) (float64, error) {
		calls++
		if calls > 3 {
			return 0, boom
		}
		return z[0], nil
	}
	if _, err := FirstCrossing(2, 1, failing); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the metric's", err)
	}
	if _, err := FirstCrossing(0, 1, linearMetric(nil, 0)); err == nil {
		t.Fatal("dims=0 accepted")
	}
}
