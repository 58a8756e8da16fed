package surface

import (
	"testing"

	"repro/internal/estimator"
)

// TestRecordRefusesAutoEstimator: a point that names no rung is not
// stored, so every stored point carries the rung Lookup compares.
func TestRecordRefusesAutoEstimator(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	c.Record(k, dk, Sample{Target: 400e-12, FailProb: 0.02, StdErr: 0.001, Samples: 4096})
	c.Record(k, dk, Sample{Target: 420e-12, FailProb: 0.002, StdErr: 0.0002, Samples: 4096, Shifted: true})
	if st := c.Stats(); st.Points != 0 || st.Records != 0 {
		t.Fatalf("estimator-less samples were recorded: %+v", st)
	}
	if _, ok := c.Lookup(k, dk, 400e-12, Tolerance{}); ok {
		t.Fatal("lookup served an estimator-less sample")
	}
}

// TestLookupRefusesCrossEstimatorInterpolation: points two different
// rungs produced are not one smooth curve, so a target bracketed by a
// QMC point and an MC point must miss — while the same pair under one
// rung interpolates fine.
func TestLookupRefusesCrossEstimatorInterpolation(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	c.Record(k, dk, Sample{Target: 400e-12, FailProb: 0.020, StdErr: 0.001, Samples: 4096, Estimator: estimator.MC})
	c.Record(k, dk, Sample{Target: 420e-12, FailProb: 0.019, StdErr: 0.001, Samples: 4096, Estimator: estimator.QMC})

	before := metCrossEstimator.Value()
	if _, ok := c.Lookup(k, dk, 410e-12, Tolerance{AbsErr: 0.5}); ok {
		t.Fatal("interpolated across estimators")
	}
	if metCrossEstimator.Value() != before+1 {
		t.Fatal("cross-estimator refusal not counted")
	}

	// Re-record the second point under the first rung (more samples so
	// the replacement wins): the same query now interpolates.
	c.Record(k, dk, Sample{Target: 420e-12, FailProb: 0.019, StdErr: 0.001, Samples: 8192, Estimator: estimator.MC})
	got, ok := c.Lookup(k, dk, 410e-12, Tolerance{AbsErr: 0.5})
	if !ok || !got.Interpolated || got.Estimator != estimator.MC {
		t.Fatalf("same-estimator interpolation broken: ok=%v %+v", ok, got)
	}
}

// TestLookupHonorsPinnedEstimator: a query that pinned a rung is never
// served a point a different rung produced, exact hit or interpolation.
func TestLookupHonorsPinnedEstimator(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	c.Record(k, dk, Sample{Target: 400e-12, FailProb: 0.020, StdErr: 0.001, Samples: 4096, Estimator: estimator.QMC})
	c.Record(k, dk, Sample{Target: 420e-12, FailProb: 0.019, StdErr: 0.001, Samples: 4096, Estimator: estimator.QMC})

	if _, ok := c.Lookup(k, dk, 400e-12, Tolerance{AbsErr: 0.5, Estimator: estimator.AIS}); ok {
		t.Fatal("exact hit served across a pinned estimator")
	}
	if _, ok := c.Lookup(k, dk, 410e-12, Tolerance{AbsErr: 0.5, Estimator: estimator.AIS}); ok {
		t.Fatal("interpolation served across a pinned estimator")
	}
	got, ok := c.Lookup(k, dk, 400e-12, Tolerance{AbsErr: 0.5, Estimator: estimator.QMC})
	if !ok || got.Estimator != estimator.QMC {
		t.Fatalf("matching pinned estimator refused: ok=%v %+v", ok, got)
	}
}
