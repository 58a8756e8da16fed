package variation

import (
	"math"
	"testing"
)

// TestZigguratMoments mirrors TestNormMoments for the ziggurat
// sampler: mean, variance, and excess kurtosis over many independent
// streams (kurtosis is the statistic a broken wedge/tail branch moves
// first, so it is checked here even though the Box–Muller test does
// not need it).
func TestZigguratMoments(t *testing.T) {
	const streams, per = 20000, 7
	var n int
	var sum, sumSq, sumQ float64
	for i := 0; i < streams; i++ {
		s := NewStream(99, uint64(i))
		for k := 0; k < per; k++ {
			x := s.NormZig()
			sum += x
			sumSq += x * x
			sumQ += x * x * x * x
			n++
		}
	}
	mean := sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	kurt := sumQ / float64(n) / (variance * variance)
	if math.Abs(mean) > 0.01 {
		t.Fatalf("ziggurat mean %g too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("ziggurat variance %g too far from 1", variance)
	}
	if math.Abs(kurt-3) > 0.15 {
		t.Fatalf("ziggurat kurtosis %g too far from 3", kurt)
	}
}

// TestZigguratTailMass checks the rejection tail: the fraction of
// draws with |z| ≥ 4 must match 2·Φ(−4). A ziggurat whose layer-0
// exponential fallback is wrong passes the moment test (the tail holds
// ~6e-5 of the mass) but fails here.
func TestZigguratTailMass(t *testing.T) {
	const streams, per = 1 << 18, 16 // ~4.2M draws
	var tail int
	for i := 0; i < streams; i++ {
		s := NewStream(1234, uint64(i))
		for k := 0; k < per; k++ {
			if x := s.NormZig(); x >= 4 || x <= -4 {
				tail++
			}
		}
	}
	n := float64(streams * per)
	p := math.Erfc(4 / math.Sqrt2) // 2·Φ(−4)
	want := n * p
	// Poisson fluctuation: ±5σ keeps the flake rate negligible while
	// catching any systematic tail error (a factor-2 bug is >20σ).
	slack := 5 * math.Sqrt(want)
	if got := float64(tail); math.Abs(got-want) > slack {
		t.Fatalf("tail mass |z|>=4: got %d draws, want %.0f ± %.0f of %g", tail, want, slack, n)
	}
}

// TestZigguratGoldenStream pins the exact bit pattern of the ziggurat
// output at a fixed seed. The sampler is part of the engine's
// determinism contract — seeds are replayable across versions and
// platforms — so any silent change to the tables, the bit layout, or
// the rejection logic must fail CI, not drift results.
func TestZigguratGoldenStream(t *testing.T) {
	golden := []struct {
		seed, idx uint64
		k         int
		bits      uint64
	}{
		{42, 0, 0, 0x3fc4fab17d23c321},
		{42, 0, 1, 0x3ffc1610adf93e76},
		{42, 0, 2, 0xbfe4ed7de589f091},
		{42, 0, 3, 0xbfb4d3a2cb1dd342},
		{42, 1, 0, 0xc00024bc72e0c785},
		{42, 1, 1, 0xc0012a9721aeac54},
		{42, 1, 2, 0xbfe37529a9fe854d},
		{42, 1, 3, 0x3fd6ae01e713b0e1},
		{42, 2, 0, 0x3fe716b0ef2ee62e},
		{42, 2, 1, 0xbff08fdcb3fe35a7},
		{42, 2, 2, 0xbff41ae0b8d30588},
		{42, 2, 3, 0x3ffb43ab6f7b41fb},
		{42, 3, 0, 0x3ffa288f32d09400},
		{42, 3, 1, 0x3fdec45e71018b8f},
		{42, 3, 2, 0xbff5c97991247647},
		{42, 3, 3, 0x3fe114cd9aa5b66d},
	}
	var s *Stream
	var prevSeed, prevIdx uint64 = 0, ^uint64(0)
	k := 0
	for _, g := range golden {
		if s == nil || g.seed != prevSeed || g.idx != prevIdx {
			s = NewStream(g.seed, g.idx)
			prevSeed, prevIdx = g.seed, g.idx
			k = 0
		}
		for ; k < g.k; k++ {
			s.NormZig()
		}
		got := math.Float64bits(s.NormZig())
		k++
		if got != g.bits {
			t.Fatalf("stream (seed=%d, idx=%d) draw %d: got bits %#016x (%g), want %#016x (%g)",
				g.seed, g.idx, g.k, got, math.Float64frombits(got), g.bits, math.Float64frombits(g.bits))
		}
	}
}

// TestZigguratTableInvariants sanity-checks the hardcoded tables
// against the recurrence that generated them: x-coordinates decreasing,
// densities increasing to 1, and the fast-path thresholds consistent
// with adjacent layer widths.
func TestZigguratTableInvariants(t *testing.T) {
	if zigF[0] != 1 {
		t.Fatalf("zigF[0] = %g, want 1", zigF[0])
	}
	if got, want := zigF[127], math.Exp(-0.5*zigR*zigR); math.Abs(got-want) > 1e-12 {
		t.Fatalf("zigF[127] = %g, want exp(−r²/2) = %g", got, want)
	}
	for i := 1; i < 128; i++ {
		// f = exp(−x²/2) with layer x increasing in i ⇒ f strictly
		// decreasing (the wedge test interpolates zigF[i-1] > zigF[i]).
		if zigF[i] >= zigF[i-1] {
			t.Fatalf("zigF not decreasing at %d: %g >= %g", i, zigF[i], zigF[i-1])
		}
		if zigW[i] <= 0 {
			t.Fatalf("zigW[%d] = %g, want > 0", i, zigW[i])
		}
		// The fast-path acceptance threshold must never admit a
		// magnitude that lands beyond the layer's own width.
		if float64(zigK[i])*zigW[i] > zigR+1e-9 {
			t.Fatalf("layer %d fast path reaches x=%g beyond r=%g", i, float64(zigK[i])*zigW[i], zigR)
		}
	}
	if zigK[1] != 0 {
		t.Fatalf("zigK[1] = %d, want 0", zigK[1])
	}
}
