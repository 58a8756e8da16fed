package sta

import (
	"math"
	"testing"

	"repro/internal/rcnet"
	"repro/internal/tech"
	"repro/internal/wire"
)

// twoPoleDelay is the analytic reference the transient engine is held
// to: the 50% step-response delay of an RC ladder from its first two
// moments via a two-pole Padé approximation, the AWE-family method
// sign-off tools descend from. For monotone RC ladders it agrees with
// the exact transient within a few percent.
//
// With transfer moments H(s) = 1 + m1·s + m2·s² + …, the [0/2] Padé
// denominator is 1 + b1·s + b2·s² with b1 = −m1 and b2 = m1² − m2.
// When the resulting pole pair is not real and stable, it falls back
// to the single-pole (Elmore) estimate −m1·ln2.
func twoPoleDelay(lad *rcnet.Ladder) float64 {
	// Moments by the RC-tree definition: m1(k) = −Σ_j R_shared(k,j)·C_j
	// and m2(far) = Σ_j R_shared(far,j)·C_j·(−m1(j)). On a ladder two
	// nodes share the resistance up to the one nearer the drive.
	n := lad.Sections()
	cumR := make([]float64, n)
	acc := 0.0
	for i, r := range lad.R {
		acc += r
		cumR[i] = acc
	}
	m1At := func(k int) float64 {
		s := 0.0
		for j := 0; j < n; j++ {
			s -= cumR[min(j, k)] * lad.C[j]
		}
		return s
	}
	m1, m2 := m1At(n-1), 0.0
	for j := 0; j < n; j++ {
		m2 += cumR[j] * lad.C[j] * (-m1At(j))
	}

	b1 := -m1
	b2 := m1*m1 - m2
	elmoreDelay := b1 * math.Ln2
	disc := b1*b1 - 4*b2
	if b2 <= 0 || disc < 0 {
		return elmoreDelay
	}
	sq := math.Sqrt(disc)
	s1 := (-b1 + sq) / (2 * b2)
	s2 := (-b1 - sq) / (2 * b2)
	if s1 >= 0 || s2 >= 0 || s1 == s2 {
		return elmoreDelay
	}
	// Step response v(t) = 1 + k1·e^{s1 t} + k2·e^{s2 t}.
	k1 := 1 / (b2 * s1 * (s1 - s2))
	k2 := 1 / (b2 * s2 * (s2 - s1))
	v := func(t float64) float64 {
		return 1 + k1*math.Exp(s1*t) + k2*math.Exp(s2*t)
	}
	// Bisect for the 50% crossing; v is monotone for RC responses.
	lo, hi := 0.0, 2*elmoreDelay/math.Ln2
	for v(hi) < 0.5 {
		hi *= 2
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if v(mid) < 0.5 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func TestTwoPoleLumpedRC(t *testing.T) {
	// Single-section lumped RC: both the two-pole method and the
	// exact answer are RC·ln2.
	lad := &rcnet.Ladder{R: []float64{1e3}, C: []float64{1e-12}}
	d := twoPoleDelay(lad)
	want := 1e-9 * math.Ln2
	if math.Abs(d-want) > 0.02*want {
		t.Fatalf("two-pole lumped delay %g, want %g", d, want)
	}
}

func TestTwoPoleMatchesTransient(t *testing.T) {
	// Distributed lines of several shapes: the analytic two-pole
	// delay must track the exact transient (step-driven) delay
	// within a few percent and sit below the Elmore bound.
	cases := []struct {
		name string
		lad  *rcnet.Ladder
	}{
		{"uniform-20", uniformLadder(20, 1e3, 1e-12)},
		{"uniform-60", uniformLadder(60, 2e3, 0.5e-12)},
		{"loaded", loadedLadder(30, 500, 0.4e-12, 50e-15)},
	}
	for _, c := range cases {
		dTP := twoPoleDelay(c.lad)
		dTr, _, err := ladderSim(c.lad, 1.0, 1e-13) // near-step
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if e := math.Abs(dTP-dTr) / dTr; e > 0.06 {
			t.Errorf("%s: two-pole %g vs transient %g (%.1f%%)", c.name, dTP, dTr, e*100)
		}
		if dTP >= c.lad.ElmoreDelay() {
			t.Errorf("%s: two-pole above Elmore bound", c.name)
		}
	}
}

func TestTwoPoleOnRealWire(t *testing.T) {
	seg := wire.NewSegment(tech.MustLookup("65nm"), 2e-3, wire.SWSS)
	lad, err := rcnet.FromSegment(seg, 40, GoldenMiller, 10e-15)
	if err != nil {
		t.Fatal(err)
	}
	dTP := twoPoleDelay(lad)
	dTr, _, err := ladderSim(lad, 1.0, 1e-13)
	if err != nil {
		t.Fatal(err)
	}
	if e := math.Abs(dTP-dTr) / dTr; e > 0.06 {
		t.Fatalf("two-pole %g vs transient %g (%.1f%%)", dTP, dTr, e*100)
	}
}

func uniformLadder(n int, rTot, cTot float64) *rcnet.Ladder {
	lad := &rcnet.Ladder{R: make([]float64, n), C: make([]float64, n)}
	for i := 0; i < n; i++ {
		lad.R[i] = rTot / float64(n)
		lad.C[i] = cTot / float64(n)
	}
	return lad
}

func loadedLadder(n int, rTot, cTot, load float64) *rcnet.Ladder {
	lad := uniformLadder(n, rTot, cTot)
	lad.C[n-1] += load
	return lad
}
