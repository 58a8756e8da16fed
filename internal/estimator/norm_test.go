package estimator

import (
	"encoding/binary"
	"math"
	"testing"
)

func TestPhiKnownValues(t *testing.T) {
	for _, tc := range []struct {
		x, want, tol float64
	}{
		{0, 0.5, 1e-16},
		{-1, 0.15865525393145705, 1e-15},
		{-2, 0.022750131948179195, 1e-16},
		{-3, 1.3498980316300946e-3, 5e-18},
		{-4, 3.1671241833119924e-5, 1e-19},
		{-6, 9.865876450376946e-10, 1e-23},
		{2, 0.9772498680518208, 1e-15},
	} {
		if got := Phi(tc.x); math.Abs(got-tc.want) > tc.tol {
			t.Fatalf("Phi(%g) = %.17g, want %.17g", tc.x, got, tc.want)
		}
	}
}

func TestPhiInvRoundTrip(t *testing.T) {
	// PhiInv(Phi(x)) = x across the working range, including the deep
	// lower tail the high-sigma estimators live in. In the upper tail
	// p sits next to 1, so the achievable accuracy is limited by the
	// absolute spacing of float64 there (≈1e-16) divided by the
	// density — the density-aware term below, not a solver defect.
	for x := -8.0; x <= 8.0; x += 0.0625 {
		got := PhiInv(Phi(x))
		dens := math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
		tol := 1e-9*math.Max(1, math.Abs(x)) + 2e-16/dens
		if math.Abs(got-x) > tol {
			t.Fatalf("PhiInv(Phi(%g)) = %.12g (err %.3g)", x, got, got-x)
		}
	}
}

func TestPhiInvEdges(t *testing.T) {
	if got := PhiInv(0.5); got != 0 {
		t.Fatalf("PhiInv(0.5) = %g, want exactly 0", got)
	}
	if !math.IsInf(PhiInv(0), -1) || !math.IsInf(PhiInv(1), 1) {
		t.Fatal("PhiInv endpoints must be infinite")
	}
	if !math.IsNaN(PhiInv(math.NaN())) {
		t.Fatal("PhiInv(NaN) must be NaN")
	}
	// Monotone through the region splits of the rational approximation.
	for _, p := range []float64{invPLow - 1e-6, invPLow, invPLow + 1e-6} {
		lo, hi := PhiInv(p-1e-9), PhiInv(p+1e-9)
		if lo >= hi {
			t.Fatalf("PhiInv not increasing near region split %g: %g >= %g", p, lo, hi)
		}
	}
}

func TestSigmaOf(t *testing.T) {
	for _, sigma := range []float64{1, 2, 3, 4.5, 6} {
		if got := SigmaOf(Phi(-sigma)); math.Abs(got-sigma) > 1e-9 {
			t.Fatalf("SigmaOf(Phi(-%g)) = %g", sigma, got)
		}
	}
}

func TestLogPhiDensity(t *testing.T) {
	// Against the direct product of 1-D densities.
	z := []float64{0.3, -1.2, 2.1}
	var sq float64
	want := 0.0
	for _, v := range z {
		sq += v * v
		want += math.Log(math.Exp(-v*v/2) / math.Sqrt(2*math.Pi))
	}
	if got := logPhiDensity(len(z), sq); math.Abs(got-want) > 1e-12 {
		t.Fatalf("logPhiDensity = %g, want %g", got, want)
	}
}

// phiInvLaneInputs covers PhiInv's special cases (NaN, ±Inf, 0, ±0,
// 1, 0.5, negatives, values above 1), subnormals, both region splits
// with their float64 neighbours, and a sweep through both tails and the
// central region.
func phiInvLaneInputs() []float64 {
	ps := []float64{
		0, math.Copysign(0, -1), 1, 0.5, math.NaN(), math.Inf(1), math.Inf(-1),
		-1, -1e-300, -math.SmallestNonzeroFloat64, 1.5, 2, math.MaxFloat64,
		math.SmallestNonzeroFloat64, 1e-310, 2.2250738585072009e-308,
		math.Nextafter(1, 0), math.Nextafter(0.5, 0), math.Nextafter(0.5, 1),
	}
	for _, edge := range []float64{invPLow, 1 - invPLow} {
		ps = append(ps, math.Nextafter(edge, 0), edge, math.Nextafter(edge, 1))
	}
	for x := -37.5; x <= 8; x += 0.375 {
		ps = append(ps, Phi(x))
	}
	return ps
}

// TestPhiInvLaneMatchesPhiInv holds every element of PhiInvLane to
// PhiInv bit for bit, on lanes of 0 to 130 elements that cross the
// chunk boundary, with the special inputs at every lane position, both
// into a separate output and in place. An output longer than the lane
// keeps its tail.
func TestPhiInvLaneMatchesPhiInv(t *testing.T) {
	pool := phiInvLaneInputs()
	for _, n := range []int{0, 1, 63, 64, 65, 130} {
		for off := 0; off < len(pool); off += 7 {
			p := make([]float64, n)
			for k := range p {
				p[k] = pool[(off+k)%len(pool)]
			}
			out := make([]float64, n+1)
			out[n] = 42
			PhiInvLane(out, p)
			if out[n] != 42 {
				t.Fatalf("n=%d: PhiInvLane wrote past len(p)", n)
			}
			inPlace := append([]float64(nil), p...)
			PhiInvLane(inPlace, inPlace)
			for k, pk := range p {
				want := math.Float64bits(PhiInv(pk))
				if got := math.Float64bits(out[k]); got != want {
					t.Fatalf("n=%d off=%d: PhiInvLane(%v)[%d] = %#x, PhiInv = %#x", n, off, pk, k, got, want)
				}
				if got := math.Float64bits(inPlace[k]); got != want {
					t.Fatalf("n=%d off=%d: in place, PhiInvLane(%v)[%d] = %#x, PhiInv = %#x", n, off, pk, k, got, want)
				}
			}
		}
	}
}

// FuzzPhiInvLane feeds arbitrary float64 bit patterns through
// PhiInvLane, into a separate output and in place, and holds each
// element to PhiInv: bit for bit, or NaN where PhiInv gives NaN.
func FuzzPhiInvLane(f *testing.F) {
	seed := func(ps ...float64) []byte {
		b := make([]byte, 0, 8*len(ps))
		for _, p := range ps {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
		}
		return b
	}
	f.Add(seed(0.5, 0.3, 0.7))
	f.Add(seed(phiInvLaneInputs()...))
	f.Add(seed(invPLow, 1-invPLow, 1e-300, math.NaN(), -0.25, 3))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := make([]float64, len(data)/8)
		for k := range p {
			p[k] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*k:]))
		}
		out := make([]float64, len(p))
		PhiInvLane(out, p)
		inPlace := append([]float64(nil), p...)
		PhiInvLane(inPlace, inPlace)
		for k, pk := range p {
			want := PhiInv(pk)
			for _, got := range []float64{out[k], inPlace[k]} {
				if math.IsNaN(want) && math.IsNaN(got) {
					continue
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("PhiInvLane(%v (%#x))[%d] = %v, PhiInv = %v", pk, math.Float64bits(pk), k, got, want)
				}
			}
		}
	})
}

// BenchmarkPhiInv measures Φ⁻¹ per element on the uniforms of the QMC
// draw (a scrambled Sobol dimension), one element at a time and at the
// lane kernel's width of 64.
func BenchmarkPhiInv(b *testing.B) {
	const n = 4096
	p := make([]float64, n)
	shift := SobolShift(1, 0, 1)
	for i := range p {
		SobolPoint(uint64(i), shift, p[i:i+1])
	}
	out := make([]float64, n)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"scalar", func() {
			for k, pk := range p {
				out[k] = PhiInv(pk)
			}
		}},
		{"lane", func() {
			for k := 0; k < n; k += 64 {
				PhiInvLane(out[k:k+64], p[k:k+64])
			}
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.run()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/elem")
		})
	}
}
