package estimator

import "fmt"

// Scrambled Sobol sequence for the QMC estimator. Classic construction
// from primitive-polynomial direction numbers (the Joe–Kuo tables),
// evaluated by random access — point i is the XOR of the direction
// numbers selected by i's set bits — so any sample index can be
// generated independently of the others. That is what lets the QMC
// kernel keep the engine's determinism contract: sample i's point
// depends only on (seed, replicate, i), never on which worker computes
// it.
//
// Scrambling is by digital shift: each replicate XORs every dimension
// with its own pseudo-random bit vector. A digital shift preserves the
// digital-net structure (the equidistribution that buys the
// convergence rate) while making each replicate an unbiased random
// estimate, so the spread of replicate means is an honest standard
// error — the piece a single deterministic sequence cannot provide.

// SobolBits is the bit depth of the generated points: 52 fractional
// bits, matching float64's mantissa so no two distinct points collapse
// to the same uniform.
const SobolBits = 52

// SobolMaxDims is the largest supported dimension count (the embedded
// direction-number table; the variation space needs 7).
const SobolMaxDims = 10

// sobolPoly holds one Joe–Kuo table row: the primitive polynomial
// degree s, the middle-coefficient bits a, and the initial odd
// direction integers m[0..s-1]. Dimension 0 (van der Corput) is the
// implicit row {s: 0}.
type sobolPoly struct {
	s int
	a uint64
	m []uint64
}

// joeKuo is the head of the new-joe-kuo-6 direction-number table
// (dimensions 2..10 in the table's 1-based numbering).
var joeKuo = []sobolPoly{
	{s: 1, a: 0, m: []uint64{1}},
	{s: 2, a: 1, m: []uint64{1, 3}},
	{s: 3, a: 1, m: []uint64{1, 3, 1}},
	{s: 3, a: 2, m: []uint64{1, 1, 1}},
	{s: 4, a: 1, m: []uint64{1, 1, 3, 3}},
	{s: 4, a: 4, m: []uint64{1, 3, 5, 13}},
	{s: 5, a: 2, m: []uint64{1, 1, 5, 5, 17}},
	{s: 5, a: 4, m: []uint64{1, 1, 5, 5, 5}},
	{s: 5, a: 7, m: []uint64{1, 1, 7, 11, 19}},
}

// sobolV[d][k] is the k-th direction number of dimension d, left-
// aligned in SobolBits bits. Built once at init from the recurrence
//
//	m_k = 2a_1·m_{k-1} ⊕ 4a_2·m_{k-2} ⊕ … ⊕ 2^{s-1}a_{s-1}·m_{k-s+1}
//	      ⊕ 2^s·m_{k-s} ⊕ m_{k-s}
var sobolV [SobolMaxDims][SobolBits]uint64

func init() {
	// Dimension 0: van der Corput, v_k = 1 << (bits-1-k).
	for k := 0; k < SobolBits; k++ {
		sobolV[0][k] = 1 << (SobolBits - 1 - k)
	}
	for d := 1; d < SobolMaxDims; d++ {
		p := joeKuo[d-1]
		m := make([]uint64, SobolBits)
		copy(m, p.m)
		for k := p.s; k < SobolBits; k++ {
			mk := m[k-p.s] ^ (m[k-p.s] << p.s)
			for j := 1; j < p.s; j++ {
				if p.a>>(p.s-1-j)&1 == 1 {
					mk ^= m[k-j] << j
				}
			}
			m[k] = mk
		}
		for k := 0; k < SobolBits; k++ {
			sobolV[d][k] = m[k] << (SobolBits - 1 - k)
		}
	}
}

// SobolShift derives one replicate's digital-shift vector from a seed:
// dims independent SobolBits-bit patterns, deterministic in
// (seed, replicate). The splitmix64 finalizer supplies the avalanche
// (the same construction the sampling PRNG uses for stream keying).
func SobolShift(seed, replicate uint64, dims int) []uint64 {
	if dims > SobolMaxDims {
		panic(fmt.Sprintf("estimator: %d Sobol dimensions exceeds the %d-dim table", dims, SobolMaxDims))
	}
	shift := make([]uint64, dims)
	x := seed*0x9E3779B97F4A7C15 + replicate + 1
	for d := range shift {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		shift[d] = (z ^ (z >> 31)) & (1<<SobolBits - 1)
	}
	return shift
}

// SobolPoint writes point #index of the (digitally shifted) Sobol
// sequence into dst as uniforms in (0, 1). len(dst) dimensions are
// generated; shift must have at least that many entries (use
// SobolShift, or zeros for the unscrambled sequence).
func SobolPoint(index uint64, shift []uint64, dst []float64) {
	for d := range dst {
		var x uint64
		for i, bits := 0, index; bits != 0; i, bits = i+1, bits>>1 {
			if bits&1 == 1 {
				x ^= sobolV[d][i]
			}
		}
		dst[d] = SobolUniform(x, shift[d])
	}
}

// SobolCoords writes the unshifted SobolBits-bit coordinates of point
// #index into dst, one per dimension: SobolPoint's integers before the
// digital shift, with the direction numbers selected by mask rather
// than by branch. A caller that draws several replicates of one index
// computes them once and shifts each with SobolUniform.
func SobolCoords(index uint64, dst []uint64) {
	for d := range dst {
		v := &sobolV[d]
		var x uint64
		for i, bits := 0, index; bits != 0; i, bits = i+1, bits>>1 {
			x ^= v[i] & -(bits & 1)
		}
		dst[d] = x
	}
}

// SobolUniform maps the unshifted coordinate x under digital shift s to
// its uniform in (0, 1): the integer x⊕s, offset by +0.5 to center the
// point in its 2^-52 cell (keeping it strictly inside (0,1) so Φ⁻¹
// stays finite), scaled by 2^-52.
func SobolUniform(x, s uint64) float64 {
	return (float64(x^s) + 0.5) * (1.0 / (1 << SobolBits))
}

// SobolNormal is SobolPoint pushed through the inverse normal CDF:
// point #index as a standardized normal draw. It is the per-sample
// reference of the lane kernel's QMC draw, which builds the same bits
// from SobolCoords, SobolUniform and PhiInvLane.
func SobolNormal(index uint64, shift []uint64, dst []float64) {
	SobolPoint(index, shift, dst)
	for d, u := range dst {
		dst[d] = PhiInv(u)
	}
}

// sobolCheckStratified is exercised by tests: it reports whether the
// first 2^m (unshifted) points of dimension d land in all 2^m dyadic
// bins exactly once — the (0, m, 1)-net property every valid set of
// direction numbers must satisfy, and the structural check that the
// embedded table rows are well-formed (odd m_k < 2^k).
func sobolCheckStratified(d, m int) bool {
	n := 1 << m
	seen := make([]bool, n)
	dst := make([]float64, d+1)
	for i := 0; i < n; i++ {
		SobolPoint(uint64(i), make([]uint64, d+1), dst)
		bin := int(dst[d] * float64(n))
		if bin < 0 || bin >= n || seen[bin] {
			return false
		}
		seen[bin] = true
	}
	return true
}
