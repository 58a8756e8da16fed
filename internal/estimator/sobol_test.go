package estimator

import (
	"math"
	"testing"
)

func TestSobolStratified(t *testing.T) {
	// Every dimension's first 2^m points must hit all 2^m dyadic bins
	// exactly once — the 1-D net property valid direction numbers give.
	for d := 0; d < SobolMaxDims; d++ {
		for _, m := range []int{1, 4, 8, 10} {
			if !sobolCheckStratified(d, m) {
				t.Fatalf("dimension %d is not (0,%d,1)-stratified", d, m)
			}
		}
	}
}

func TestSobolPointRange(t *testing.T) {
	dst := make([]float64, SobolMaxDims)
	shift := SobolShift(42, 3, SobolMaxDims)
	for i := uint64(0); i < 4096; i++ {
		SobolPoint(i, shift, dst)
		for d, u := range dst {
			if !(u > 0 && u < 1) {
				t.Fatalf("point %d dim %d = %g outside (0,1)", i, d, u)
			}
		}
	}
}

func TestSobolRandomAccessMatchesSequential(t *testing.T) {
	// Random access must agree with itself regardless of generation
	// order — generate indices backwards and compare.
	const n = 512
	shift := make([]uint64, 3)
	fwd := make([][]float64, n)
	for i := 0; i < n; i++ {
		fwd[i] = make([]float64, 3)
		SobolPoint(uint64(i), shift, fwd[i])
	}
	dst := make([]float64, 3)
	for i := n - 1; i >= 0; i-- {
		SobolPoint(uint64(i), shift, dst)
		for d := range dst {
			if dst[d] != fwd[i][d] {
				t.Fatalf("point %d dim %d differs across generation order", i, d)
			}
		}
	}
}

func TestSobolShiftDeterministic(t *testing.T) {
	a := SobolShift(7, 2, 5)
	b := SobolShift(7, 2, 5)
	for d := range a {
		if a[d] != b[d] {
			t.Fatal("SobolShift not deterministic in (seed, replicate)")
		}
		if a[d] >= 1<<SobolBits {
			t.Fatalf("shift %d exceeds %d bits", a[d], SobolBits)
		}
	}
	c := SobolShift(7, 3, 5)
	same := true
	for d := range a {
		if a[d] != c[d] {
			same = false
		}
	}
	if same {
		t.Fatal("different replicates produced identical shifts")
	}
}

func TestSobolShiftPanicsPastTable(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("SobolShift accepted more dimensions than the table holds")
		}
	}()
	SobolShift(1, 0, SobolMaxDims+1)
}

func TestSobolNormalMean(t *testing.T) {
	// Pushed through Φ⁻¹, a shifted Sobol block should estimate the
	// standard normal's mean and variance tightly — much tighter than
	// plain MC at the same n.
	const n = 4096
	dims := 7
	shift := SobolShift(9, 0, dims)
	dst := make([]float64, dims)
	mean := make([]float64, dims)
	m2 := make([]float64, dims)
	for i := uint64(0); i < n; i++ {
		SobolNormal(i, shift, dst)
		for d, v := range dst {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Fatalf("non-finite normal draw at point %d dim %d", i, d)
			}
			mean[d] += v
			m2[d] += v * v
		}
	}
	for d := 0; d < dims; d++ {
		mu := mean[d] / n
		va := m2[d]/n - mu*mu
		if math.Abs(mu) > 0.01 {
			t.Fatalf("dim %d mean %g too far from 0", d, mu)
		}
		if math.Abs(va-1) > 0.05 {
			t.Fatalf("dim %d variance %g too far from 1", d, va)
		}
	}
}

func TestSobolConvergesFasterThanGrid(t *testing.T) {
	// Integrate f(u) = Π u_d over [0,1]^3 (exact value 1/8): 1024 Sobol
	// points must land within 1e-3, far tighter than the ~1e-2 a plain
	// MC run of that size achieves.
	const n = 1024
	shift := make([]uint64, 3)
	dst := make([]float64, 3)
	var sum float64
	for i := uint64(0); i < n; i++ {
		SobolPoint(i, shift, dst)
		sum += dst[0] * dst[1] * dst[2]
	}
	if got := sum / n; math.Abs(got-0.125) > 1e-3 {
		t.Fatalf("Sobol integral = %.6f, want 0.125 ± 1e-3", got)
	}
}

// TestSobolNormalGolden pins the QMC draw's bits: SobolNormal at seed 1
// for replicates 0 and 7 on both sides of the 255→256 and 1023→1024
// point-index boundaries. The vectors reach both tails of the rational
// approximation (±2.1, −2.3) and Erfc's exponential branch
// (|x| ≥ 1.25·√2), so a change to the approximation, the refinement or
// the point construction fails here even when it moves the lane draw
// and its reference together.
func TestSobolNormalGolden(t *testing.T) {
	golden := []struct {
		rep, idx uint64
		bits     [7]uint64
	}{
		{0, 0, [7]uint64{0x3fe2d94af4548b45, 0xbfe7ee4badd17a3b, 0xbff4ef967009f3d2, 0x3fe18aa9186262d6, 0x3fecbd17f0c3a1cf, 0x3fd39681d5197e8e, 0xbfa59b8dfc7dbd7c}},
		{0, 1, [7]uint64{0xbfe87c7a03e3fc42, 0x3fe358e902408d40, 0x3fcee4221bc8e9f9, 0xbfea01147e2d5424, 0xbfdec0d1e8ab6432, 0xbff2c839551edbde, 0x4000fe22a217f8d9}},
		{0, 255, [7]uint64{0xbfe2964e400442d0, 0xbfe784b614014b61, 0xbfda2527862c0ad5, 0xbfe8b7a6c1b6e6a4, 0xbfe4216e6ff1bb06, 0xbfdf70872ccf2825, 0xbfd7ecf641c5a257}},
		{0, 256, [7]uint64{0x3fe2a9abb6b227ea, 0x3fe389252bab7d9c, 0xbfc2fb3b022721c7, 0xbfc6edbd8f992bf5, 0x3fb9bc67a8909f0e, 0xbf9147e1cef06188, 0x3fe7ac231e6626b6}},
		{0, 1023, [7]uint64{0xbfe2ddb35b9012cc, 0xbfa6e6c53e8e19c9, 0x3fd67cdfc37419d8, 0x3fe7d25a401e58a5, 0xbfe945738b60ee84, 0x3ff21cf5b0aba89b, 0x3fe8d2123874c179}},
		{0, 1024, [7]uint64{0x3fe2e5394840295b, 0x3fd0d5cad5759aa8, 0x3ffc3682635e391d, 0x3ff6fa8e9c913356, 0xbfc1c290720cc34c, 0xbfe96baf7082231c, 0xbfd0c11da348fdc9}},
		{7, 0, [7]uint64{0x3fb95358207e3621, 0xbfe42bc81e08b664, 0x3ff6780d322d58ab, 0xbfd08df91c1815a2, 0xbfb878c41b7db2ba, 0xbff1758a8573b6c1, 0x3ffa49dac0b88279}},
		{7, 1, [7]uint64{0xbffc1f6532971606, 0x3fe70a29d5feee40, 0xbfc9e12605e288a2, 0x3ff451ab04672026, 0x3ffc6001b3041b29, 0x3fd687b4f410f98b, 0xbfc02542173efef4}},
		{7, 255, [7]uint64{0xbfbb683a9ab15f94, 0xbfe48dfeb89ba630, 0x3fd7607cfc6b3497, 0x3ff56b4e7aeed13c, 0x3ff41a3e26650a66, 0x3ff9be48006bc8b4, 0x3fed66fbf394d3a5}},
		{7, 256, [7]uint64{0x3fba95d8a9440263, 0x3fe6d64f0180f146, 0x3fa4034d86217282, 0x3fe48fcfd1662d0c, 0xbfedee1c9b892d1b, 0x3fe71275fa9c23c7, 0xbfe079b01e3f05d4}},
		{7, 1023, [7]uint64{0xbfb984608d6e7a09, 0xc0023d5d527a61a2, 0xbfdf1c93b1e9f106, 0xbff636a220a7cded, 0x3fc4236af3dea322, 0xbfd27105430411f6, 0xbfdfb46dfafebd67}},
		{7, 1024, [7]uint64{0x3fb9a3f46a2861e1, 0x3ff35ab90775f268, 0xc0006ebe00df1085, 0xbfe7153f26a6282c, 0x3fefde0dc2302bc8, 0x3fbc8194814a0321, 0x3ff722129dd3589e}},
	}
	dst := make([]float64, 7)
	for _, g := range golden {
		SobolNormal(g.idx, SobolShift(1, g.rep, 7), dst)
		for d, v := range dst {
			if got := math.Float64bits(v); got != g.bits[d] {
				t.Fatalf("replicate %d point %d dim %d: got %#016x (%g), want %#016x (%g)",
					g.rep, g.idx, d, got, v, g.bits[d], math.Float64frombits(g.bits[d]))
			}
		}
	}
}

// TestSobolCoordsMatchSobolPoint holds the lane draw's split form —
// SobolCoords once per index, then SobolUniform per shift — to
// SobolPoint bit for bit, on every table dimension, at indices up to
// 2⁴⁸ and under several shifts.
func TestSobolCoordsMatchSobolPoint(t *testing.T) {
	coords := make([]uint64, SobolMaxDims)
	want := make([]float64, SobolMaxDims)
	shifts := [][]uint64{make([]uint64, SobolMaxDims), SobolShift(1, 0, SobolMaxDims), SobolShift(3, 7, SobolMaxDims)}
	for _, idx := range []uint64{0, 1, 2, 3, 255, 256, 1023, 1024, 4095, 1<<20 + 5, 1<<48 - 1} {
		SobolCoords(idx, coords)
		for _, sh := range shifts {
			SobolPoint(idx, sh, want)
			for d, x := range coords {
				if got := SobolUniform(x, sh[d]); math.Float64bits(got) != math.Float64bits(want[d]) {
					t.Fatalf("point %d dim %d: SobolUniform(SobolCoords) = %v, SobolPoint = %v", idx, d, got, want[d])
				}
			}
		}
	}
}
