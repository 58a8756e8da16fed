package variation

import "math"

// This file provides the engine's deterministic splittable PRNG. Each
// Monte Carlo sample owns an independent stream whose seed is the base
// seed XOR the sample index (the guarantee ISSUE/README document: the
// stream a sample sees depends only on (seed, index), never on which
// worker evaluates it or in what order). The generator is splitmix64,
// which is designed exactly for this use: it turns a counter-like seed
// into a high-quality random sequence with a single multiply-and-xor
// finalizer per output, so consecutive sample indices yield
// decorrelated streams.

// splitmix64 constants (Steele, Lea, Flood — "Fast splittable
// pseudorandom number generators").
const (
	smGamma = 0x9E3779B97F4A7C15
	smMul1  = 0xBF58476D1CE4E5B9
	smMul2  = 0x94D049BB133111EB
)

// Stream is one sample's private random stream. The zero value is a
// valid stream seeded with 0; use NewStream to derive a per-sample
// stream from a base seed.
type Stream struct {
	state uint64
	// Box–Muller produces normals in pairs; the spare is cached so a
	// stream of Norm() calls consumes uniforms deterministically.
	spare    float64
	hasSpare bool
}

// mix64 is the splitmix64 finalizer: a bijective avalanche hash.
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * smMul1
	x = (x ^ (x >> 27)) * smMul2
	return x ^ (x >> 31)
}

// NewStream returns the stream for one Monte Carlo sample: per-sample
// seed = hash(base seed) ⊕ sample index. The base seed is avalanched
// first because folding the index into the raw seed would map every
// base seed below the sample count onto a permutation of the same
// sample set — different seeds would then produce bit-identical
// estimates instead of independent replications. Two streams with
// different indices are statistically independent; the same
// (seed, index) pair always produces the same sequence.
func NewStream(seed, index uint64) *Stream {
	return &Stream{state: mix64(seed+smGamma) ^ index}
}

// Reset reseeds s in place to the exact state NewStream(seed, index)
// would return, discarding any cached Box–Muller spare, so one Stream
// can walk many samples without allocating while the (seed, index) →
// sequence contract is unchanged. The lane's draw (drawPhase) sets the
// same state for every rung but qmc, with the seed's hash computed once
// per run.
func (s *Stream) Reset(seed, index uint64) {
	s.state = mix64(seed+smGamma) ^ index
	s.spare = 0
	s.hasSpare = false
}

// Uint64 returns the next raw 64-bit output.
func (s *Stream) Uint64() uint64 {
	s.state += smGamma
	z := s.state
	z = (z ^ (z >> 30)) * smMul1
	z = (z ^ (z >> 27)) * smMul2
	return z ^ (z >> 31)
}

// Float64 returns a uniform draw in the half-open interval (0, 1] —
// never zero, so it is safe under a logarithm.
func (s *Stream) Float64() float64 {
	return (float64(s.Uint64()>>11) + 1) / (1 << 53)
}

// Norm returns a standard normal draw via the Box–Muller transform.
// No rung draws with it: it serves the benchmark module's AIS split
// (through NormsInto) and the tests.
func (s *Stream) Norm() float64 {
	if s.hasSpare {
		s.hasSpare = false
		return s.spare
	}
	u1, u2 := s.Float64(), s.Float64()
	r := math.Sqrt(-2 * math.Log(u1))
	theta := 2 * math.Pi * u2
	s.spare = r * math.Sin(theta)
	s.hasSpare = true
	return r * math.Cos(theta)
}

// NormsInto fills the caller-owned dst with len(dst) standard normal
// Box–Muller draws, one Norm per element. Like Norm it has no
// production caller; the benchmark module's AIS split still times it.
func (s *Stream) NormsInto(dst []float64) {
	for i := range dst {
		dst[i] = s.Norm()
	}
}
