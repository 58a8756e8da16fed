package estimator

import "math"

// Gaussian-mixture proposal for adaptive importance sampling. The
// cross-entropy method iterates: draw from the current proposal, rank
// by the constraint metric, refit the mixture on the elite set. A
// mixture (rather than ISLE's single shifted Gaussian) matters past
// ~4σ, where the dominant failure region is curved and a second lobe
// (here: the symmetric NMOS/PMOS threshold dimensions) carries real
// probability a single mean shift cannot cover.
//
// Every proposal carries a defensive standard-normal component of
// fixed weight: q(z) = α·φ(z) + (1−α)·Σ w_k N(z; μ_k, diag σ_k²).
// Because q ≥ α·φ everywhere, the likelihood ratio φ/q is bounded by
// 1/α — the classic defensive-mixture construction that keeps the
// self-normalized estimator's variance finite no matter how badly a
// cross-entropy iteration overfits its elites.

// DefensiveWeight is the α above: 10% of every AIS draw comes from
// the unshifted nominal distribution, bounding all importance weights
// by 10.
const DefensiveWeight = 0.1

// Mixture is a diagonal-covariance Gaussian mixture over the
// standardized space plus the defensive φ component. The zero value
// is not usable; StandardProposal and FitMixture construct valid ones.
// The fields are read-only once constructed: construction caches the
// logarithms of the parameters, which every weight evaluation reads.
type Mixture struct {
	// Defense is the weight of the N(0, I) defensive component.
	Defense float64
	// Weight, Mean, Sigma describe the adapted components; Weight sums
	// to 1−Defense.
	Weight []float64
	Mean   [][]float64
	Sigma  [][]float64

	// logCoef[k] is log Weight[k] − Σ_d log Sigma[k][d], set by
	// cacheLogs: the constant of component k's density ratio to φ.
	logCoef []float64
}

// log2Pi is log 2π, the normalizing constant of every Gaussian log
// density here.
var log2Pi = math.Log(2 * math.Pi)

// cacheLogs computes the logarithms of the mixture's parameters once,
// so weight evaluations read them instead of recomputing ~15
// logarithms per call.
func (m *Mixture) cacheLogs() {
	m.logCoef = make([]float64, len(m.Weight))
	for k, w := range m.Weight {
		c := math.Log(w)
		for _, sg := range m.Sigma[k] {
			c -= math.Log(sg)
		}
		m.logCoef[k] = c
	}
}

// logsInto writes log x[d] into dst[d].
func logsInto(dst, x []float64) {
	for d, v := range x {
		dst[d] = math.Log(v)
	}
}

// StandardProposal is the stage-0 proposal: the standard normal alone
// (equivalently, a pure defensive component).
func StandardProposal() Mixture {
	m := Mixture{Defense: 1}
	m.cacheLogs()
	return m
}

// SampleInto turns one uniform u (component selection) and one
// standard-normal draw eps (length dims) into a proposal draw, written
// to z. eps and z may alias. The mapping is a deterministic function
// of (u, eps), which is what keeps AIS bit-identical across worker
// counts: the underlying stream is keyed by sample index, and this
// transform adds no state.
func (m *Mixture) SampleInto(u float64, eps, z []float64) {
	u -= m.Defense
	if u < 0 {
		copy(z, eps)
		return
	}
	for k := range m.Weight {
		u -= m.Weight[k]
		if u < 0 || k == len(m.Weight)-1 {
			mu, sg := m.Mean[k], m.Sigma[k]
			for d := range z {
				z[d] = mu[d] + sg[d]*eps[d]
			}
			return
		}
	}
	copy(z, eps) // no adapted components: defensive draw
}

// logNormal is the log density of a diagonal Gaussian at z, given
// logSigma[d] = log sigma[d].
func logNormal(z, mu, sigma, logSigma []float64) float64 {
	s := -0.5 * float64(len(z)) * log2Pi
	for d := range z {
		r := (z[d] - mu[d]) / sigma[d]
		s -= logSigma[d] + 0.5*r*r
	}
	return s
}

// sqNorm is |z|².
func sqNorm(z []float64) float64 {
	var sq float64
	for _, v := range z {
		sq += v * v
	}
	return sq
}

// Weight01 returns the importance weight φ(z)/q(z) of a proposal draw
// in closed form. Dividing q by φ cancels the 2π normalizations:
//
//	φ/q = 1 / (α + Σ_k exp(c_k + ½|z|² − ½Σ_d ((z_d − μ_kd)/σ_kd)²))
//
// with c_k the cached log w_k − Σ_d log σ_kd, so a draw costs one Exp
// per adapted component and no logarithm. A term that overflows sends
// the weight to 0 and one that underflows leaves 1/α, the weight's
// true limits there. With a defensive component the weight lies in
// [0, fl(1/Defense)]: the denominator never falls below α.
func (m *Mixture) Weight01(z []float64) float64 {
	half := 0.5 * sqNorm(z)
	s := m.Defense
	for k, c := range m.logCoef {
		mu, sg := m.Mean[k], m.Sigma[k]
		var q float64
		for d, v := range z {
			r := (v - mu[d]) / sg[d]
			q += r * r
		}
		s += math.Exp(c + half - 0.5*q)
	}
	return 1 / s
}

// FitOptions tunes FitMixture. The zero value selects the documented
// default.
type FitOptions struct {
	// SigmaFloor bounds every fitted per-dimension sigma from below
	// (default 0.25): a cross-entropy iteration must never collapse
	// the proposal onto a point, which would send later likelihood
	// ratios to infinity.
	SigmaFloor float64
}

func (o FitOptions) withDefaults() FitOptions {
	if o.SigmaFloor == 0 {
		o.SigmaFloor = 0.25
	}
	return o
}

const (
	// fitMaxMeanNorm caps each fitted component mean's Euclidean norm,
	// matching the engine's shift cap: beyond it the failure
	// probability is unresolvable anyway.
	fitMaxMeanNorm = 8
	// fitIters is the EM iteration count, fixed so the fit is
	// deterministic.
	fitIters = 8
)

// FitMixture fits a k-component mixture to weighted elite points by a
// fixed-iteration weighted EM, deterministically: contiguous chunks of
// the (caller-ordered) points seed the components, and every
// accumulation runs in point order. Points must be non-empty; weights
// are clamped non-negative and a zero total falls back to uniform.
// The fitted mixture carries the defensive component automatically.
func FitMixture(k int, pts [][]float64, w []float64, opts FitOptions) Mixture {
	opts = opts.withDefaults()
	n := len(pts)
	dims := len(pts[0])
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}

	cw := make([]float64, n)
	var total float64
	for i, wi := range w {
		if wi > 0 {
			cw[i] = wi
			total += wi
		}
	}
	if total == 0 {
		for i := range cw {
			cw[i] = 1
		}
		total = float64(n)
	}

	m := Mixture{
		Defense: DefensiveWeight,
		Weight:  make([]float64, k),
		Mean:    make([][]float64, k),
		Sigma:   make([][]float64, k),
	}
	// Seed: K contiguous chunks of the caller's ordering (the AIS
	// driver orders elites by metric depth, so chunks start out as
	// depth bands).
	for c := 0; c < k; c++ {
		lo, hi := c*n/k, (c+1)*n/k
		if hi == lo {
			hi = lo + 1
		}
		m.Mean[c], m.Sigma[c] = weightedMoments(pts[lo:hi], cw[lo:hi], dims, opts)
		var chunkW float64
		for _, wi := range cw[lo:hi] {
			chunkW += wi
		}
		m.Weight[c] = chunkW
	}
	normalizeWeights(m.Weight, 1-m.Defense)
	if k == 1 {
		m.cacheLogs()
		return m
	}

	// Weighted EM, fixed iterations. Responsibilities are computed in
	// log space; a component that loses all responsibility keeps its
	// parameters and a floor weight instead of going degenerate. The
	// sigmas are fixed through an E-step, so their logarithms are taken
	// once per iteration, not once per point.
	resp := make([]float64, n*k)
	logw := make([]float64, k)
	logSig := make([]float64, k*dims)
	for it := 0; it < fitIters; it++ {
		for c := 0; c < k; c++ {
			logw[c] = math.Log(math.Max(m.Weight[c], 1e-12))
			logsInto(logSig[c*dims:(c+1)*dims], m.Sigma[c])
		}
		for i, z := range pts {
			best := math.Inf(-1)
			row := resp[i*k : (i+1)*k]
			for c := 0; c < k; c++ {
				row[c] = logw[c] + logNormal(z, m.Mean[c], m.Sigma[c], logSig[c*dims:(c+1)*dims])
				if row[c] > best {
					best = row[c]
				}
			}
			var s float64
			for c := range row {
				row[c] = math.Exp(row[c] - best)
				s += row[c]
			}
			for c := range row {
				row[c] *= cw[i] / s
			}
		}
		for c := 0; c < k; c++ {
			var rw float64
			for i := 0; i < n; i++ {
				rw += resp[i*k+c]
			}
			if rw <= 1e-12*total {
				m.Weight[c] = 1e-3
				continue
			}
			m.Weight[c] = rw
			mu, sg := m.Mean[c], m.Sigma[c]
			for d := 0; d < dims; d++ {
				var s float64
				for i := 0; i < n; i++ {
					s += resp[i*k+c] * pts[i][d]
				}
				mu[d] = s / rw
			}
			capNorm(mu, fitMaxMeanNorm)
			for d := 0; d < dims; d++ {
				var s float64
				for i := 0; i < n; i++ {
					r := pts[i][d] - mu[d]
					s += resp[i*k+c] * r * r
				}
				sg[d] = math.Max(math.Sqrt(s/rw), opts.SigmaFloor)
			}
		}
		normalizeWeights(m.Weight, 1-m.Defense)
	}
	m.cacheLogs()
	return m
}

// weightedMoments computes the weighted mean and floored/capped
// per-dimension sigma of a point set.
func weightedMoments(pts [][]float64, w []float64, dims int, opts FitOptions) (mu, sigma []float64) {
	mu = make([]float64, dims)
	sigma = make([]float64, dims)
	var total float64
	for _, wi := range w {
		total += wi
	}
	if total == 0 {
		total = float64(len(pts))
		for d := 0; d < dims; d++ {
			for _, z := range pts {
				mu[d] += z[d]
			}
			mu[d] /= total
		}
	} else {
		for d := 0; d < dims; d++ {
			var s float64
			for i, z := range pts {
				s += w[i] * z[d]
			}
			mu[d] = s / total
		}
	}
	capNorm(mu, fitMaxMeanNorm)
	for d := 0; d < dims; d++ {
		var s float64
		for i, z := range pts {
			r := z[d] - mu[d]
			wi := 1.0
			if i < len(w) && w[i] > 0 {
				wi = w[i]
			}
			s += wi * r * r
		}
		sigma[d] = math.Max(math.Sqrt(s/total), opts.SigmaFloor)
	}
	return mu, sigma
}

// capNorm rescales v in place so its Euclidean norm is at most limit.
func capNorm(v []float64, limit float64) {
	var sq float64
	for _, x := range v {
		sq += x * x
	}
	if n := math.Sqrt(sq); n > limit {
		f := limit / n
		for d := range v {
			v[d] *= f
		}
	}
}

// normalizeWeights rescales w in place to sum to total (uniform when
// the current sum is zero).
func normalizeWeights(w []float64, total float64) {
	var s float64
	for _, x := range w {
		s += x
	}
	if s <= 0 {
		for i := range w {
			w[i] = total / float64(len(w))
		}
		return
	}
	for i := range w {
		w[i] *= total / s
	}
}

// ESS is the effective sample size (Σw)²/Σw² of a weight set, the
// guard quantity of the self-normalized estimator: n equally weighted
// samples have ESS n, while a degenerate weight set (one sample
// carrying everything) has ESS ≈ 1.
func ESS(sumW, sumW2 float64) float64 {
	if sumW2 <= 0 {
		return 0
	}
	return sumW * sumW / sumW2
}
