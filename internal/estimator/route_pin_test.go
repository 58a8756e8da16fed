package estimator

import (
	"math"
	"testing"
)

// TestRoutePinned holds the routing bands: each band edge routes to
// the band it opens, the value just below it to the next deeper band,
// and anything outside (0, 1] to Auto.
func TestRoutePinned(t *testing.T) {
	for _, c := range []struct {
		edge             float64
		below, at, above Kind
	}{
		{2e-2, QMC, MC, MC},
		{1e-3, ISLE, QMC, QMC},
		{1e-5, AIS, ISLE, ISLE},
	} {
		for _, p := range []struct {
			p    float64
			want Kind
		}{
			{math.Nextafter(c.edge, 0), c.below},
			{c.edge, c.at},
			{math.Nextafter(c.edge, 1), c.above},
		} {
			if got := Route(p.p); got != p.want {
				t.Errorf("Route(%x) = %q, want %q", p.p, got, p.want)
			}
		}
	}
	for _, c := range []struct {
		p    float64
		want Kind
	}{
		{1, MC}, {0, Auto}, {-1, Auto}, {1.5, Auto}, {math.NaN(), Auto},
	} {
		if got := Route(c.p); got != c.want {
			t.Errorf("Route(%g) = %q, want %q", c.p, got, c.want)
		}
	}
}

// TestRouteSigmaPinned holds RouteSigma over 0–8σ in quarter steps,
// and at ±Inf and NaN.
func TestRouteSigmaPinned(t *testing.T) {
	want := []Kind{
		Auto, MC, MC, MC, MC, MC, MC, MC, MC, // 0–2σ
		QMC, QMC, QMC, QMC, // 2.25–3σ
		ISLE, ISLE, ISLE, ISLE, ISLE, // 3.25–4.25σ
		AIS, AIS, AIS, AIS, AIS, AIS, AIS, AIS, AIS, AIS, AIS, AIS, AIS, AIS, AIS, // 4.5–8σ
	}
	for i, k := range want {
		sigma := float64(i) / 4
		if got := RouteSigma(sigma); got != k {
			t.Errorf("RouteSigma(%g) = %q, want %q", sigma, got, k)
		}
	}
	for _, sigma := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := RouteSigma(sigma); got != Auto {
			t.Errorf("RouteSigma(%g) = %q, want Auto", sigma, got)
		}
	}
}
