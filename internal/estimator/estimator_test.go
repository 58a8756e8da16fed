package estimator

import (
	"math"
	"testing"
)

func TestParse(t *testing.T) {
	for _, tc := range []struct {
		name string
		want Kind
	}{
		{"", Auto}, {"auto", Auto}, {"mc", MC}, {"isle", ISLE},
		{"ais", AIS}, {"qmc", QMC}, {"wcd", WCD},
	} {
		got, err := Parse(tc.name)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.name, err)
		}
		if got != tc.want {
			t.Fatalf("Parse(%q) = %q, want %q", tc.name, got, tc.want)
		}
	}
	_, err := Parse("bogus")
	if want := `estimator: unknown estimator "bogus" (known: auto [ais isle mc qmc wcd])`; err == nil || err.Error() != want {
		t.Fatalf("Parse(bogus) = %v, want %s", err, want)
	}
}

func TestKnown(t *testing.T) {
	for _, k := range []Kind{MC, QMC, ISLE, AIS, WCD} {
		if !Known(k) {
			t.Fatalf("Known(%q) = false", k)
		}
	}
	for _, k := range []Kind{Auto, "auto", "nope"} {
		if Known(k) {
			t.Fatalf("Known(%q) = true", k)
		}
	}
}

func TestRouteBands(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want Kind
	}{
		{0.5, MC}, {0.05, MC}, {2e-2, MC}, {1.0, MC},
		{1e-2, QMC}, {1.5e-3, QMC},
		{1e-3, QMC}, // boundary: inclusive lower edge of QMC band
		{1e-4, ISLE}, {2e-5, ISLE},
		{1e-5, ISLE}, // boundary: inclusive lower edge of ISLE band
		{9e-6, AIS}, {1e-9, AIS}, {1e-15, AIS},
	} {
		if got := Route(tc.p); got != tc.want {
			t.Fatalf("Route(%g) = %q, want %q", tc.p, got, tc.want)
		}
	}
	for _, p := range []float64{0, -1, math.NaN(), 1.5} {
		if got := Route(p); got != Auto {
			t.Fatalf("Route(%g) = %q, want Auto", p, got)
		}
	}
}

func TestRouteSigma(t *testing.T) {
	// Route by sigma must agree with routing the corresponding tail
	// probability: 2σ common failures stay MC, 6σ goes to AIS.
	for _, tc := range []struct {
		sigma float64
		want  Kind
	}{
		{1, MC}, {2, MC}, {2.5, QMC}, {3, QMC}, {3.5, ISLE}, {4, ISLE}, {5, AIS}, {6, AIS},
	} {
		if got := RouteSigma(tc.sigma); got != tc.want {
			t.Fatalf("RouteSigma(%g) = %q, want %q", tc.sigma, got, tc.want)
		}
	}
	if got := RouteSigma(0); got != Auto {
		t.Fatalf("RouteSigma(0) = %q, want Auto", got)
	}
	if got := RouteSigma(math.Inf(1)); got != Auto {
		t.Fatalf("RouteSigma(+Inf) = %q, want Auto", got)
	}
}

func TestSamplingBandsTile(t *testing.T) {
	// Every positive probability must route somewhere: the sampling
	// estimators' bands tile (0, 1] with no gaps.
	for p := 1e-16; p <= 1; p *= 1.7 {
		if got := Route(p); got == Auto {
			t.Fatalf("Route(%g) fell through the bands", p)
		}
	}
}
