package estimator

import (
	"math"
	"math/rand"
	"testing"
)

func TestStandardProposalIsPhi(t *testing.T) {
	m := StandardProposal()
	if len(m.Weight) != 0 {
		t.Fatal("StandardProposal carries adapted components")
	}
	// q = φ, so every draw, however deep, weighs exactly 1.
	for _, z := range [][]float64{{0.5, -1.5, 2}, {0, 0, 0}, {12, -30, 7}} {
		if got := m.Weight01(z); got != 1 {
			t.Fatalf("standard proposal weight at %v = %v, want 1", z, got)
		}
	}
}

func TestSampleIntoDeterministicTransform(t *testing.T) {
	m := Mixture{
		Defense: DefensiveWeight,
		Weight:  []float64{0.5, 0.4},
		Mean:    [][]float64{{2, 0}, {-1, 3}},
		Sigma:   [][]float64{{1, 0.5}, {0.25, 1}},
	}
	m.cacheLogs()
	eps := []float64{0.7, -0.3}
	za := make([]float64, 2)
	zb := make([]float64, 2)
	for _, u := range []float64{0.01, 0.05, 0.3, 0.7, 0.99} {
		m.SampleInto(u, eps, za)
		m.SampleInto(u, eps, zb)
		if za[0] != zb[0] || za[1] != zb[1] {
			t.Fatalf("SampleInto(%g) not deterministic", u)
		}
	}
	// u inside the defensive slice returns eps unchanged.
	m.SampleInto(0.05, eps, za)
	if za[0] != eps[0] || za[1] != eps[1] {
		t.Fatal("defensive draw must pass eps through")
	}
	// u past the defensive slice lands in a component: μ + σ∘eps.
	m.SampleInto(0.2, eps, za)
	if za[0] != 2+0.7 || za[1] != 0+0.5*-0.3 {
		t.Fatalf("component draw = %v, want [2.7 -0.15]", za)
	}
}

func TestWeightBoundedByDefense(t *testing.T) {
	// However badly a component is placed, the defensive part bounds
	// the importance weight φ/q by 1/Defense, rounded: the closed form's
	// denominator never falls below Defense.
	m := Mixture{
		Defense: DefensiveWeight,
		Weight:  []float64{0.9},
		Mean:    [][]float64{{6, 6, 6}},
		Sigma:   [][]float64{{0.25, 0.25, 0.25}},
	}
	m.cacheLogs()
	limit := 1 / m.Defense
	for _, z := range [][]float64{{0, 0, 0}, {-3, 2, 1}, {6, 6, 6}, {8, -8, 0}} {
		if w := m.Weight01(z); w > limit || w < 0 || math.IsNaN(w) {
			t.Fatalf("weight at %v = %g outside [0, %g]", z, w, limit)
		}
	}
	// The limits: far from the component its term underflows and the
	// weight is the bound itself; deep inside a wide component the term
	// overflows and the weight is 0.
	if w := m.Weight01([]float64{40, -40, 40}); w != limit {
		t.Fatalf("weight far from the component = %v, want %v", w, limit)
	}
	wide := Mixture{
		Defense: DefensiveWeight,
		Weight:  []float64{0.9},
		Mean:    [][]float64{{0, 0, 0}},
		Sigma:   [][]float64{{8, 8, 8}},
	}
	wide.cacheLogs()
	if w := wide.Weight01([]float64{40, 40, 40}); w != 0 {
		t.Fatalf("weight deep inside a wide component = %v, want 0", w)
	}
}

func TestFitMixtureRecoverseparatedClusters(t *testing.T) {
	// Two well-separated clusters of equal weight: the fit should put
	// one component near each center.
	var pts [][]float64
	var w []float64
	centers := [][]float64{{4, 0}, {-4, 0}}
	for _, c := range centers {
		for i := 0; i < 40; i++ {
			off := 0.1 * float64(i%5-2)
			pts = append(pts, []float64{c[0] + off, c[1] - off})
			w = append(w, 1)
		}
	}
	m := FitMixture(2, pts, w, FitOptions{})
	if len(m.Weight) != 2 {
		t.Fatalf("fit produced %d components, want 2", len(m.Weight))
	}
	if m.Defense != DefensiveWeight {
		t.Fatalf("fitted Defense = %g, want %g", m.Defense, DefensiveWeight)
	}
	var wsum float64
	for _, wk := range m.Weight {
		wsum += wk
	}
	if math.Abs(wsum-(1-DefensiveWeight)) > 1e-9 {
		t.Fatalf("component weights sum to %g, want %g", wsum, 1-DefensiveWeight)
	}
	// Each center should be within 0.5 of some component mean.
	for _, c := range centers {
		found := false
		for _, mu := range m.Mean {
			if math.Hypot(mu[0]-c[0], mu[1]-c[1]) < 0.5 {
				found = true
			}
		}
		if !found {
			t.Fatalf("no component near center %v: means %v", c, m.Mean)
		}
	}
	for _, sg := range m.Sigma {
		for _, s := range sg {
			if s < 0.25-1e-12 {
				t.Fatalf("sigma %g below the floor", s)
			}
		}
	}
}

func TestFitMixtureDeterministic(t *testing.T) {
	pts := make([][]float64, 50)
	w := make([]float64, 50)
	for i := range pts {
		pts[i] = []float64{float64(i%7) - 3, float64(i%11)*0.3 - 1.5}
		w[i] = 1 + float64(i%3)
	}
	a := FitMixture(3, pts, w, FitOptions{})
	b := FitMixture(3, pts, w, FitOptions{})
	for k := range a.Weight {
		if a.Weight[k] != b.Weight[k] {
			t.Fatal("FitMixture weights not deterministic")
		}
		for d := range a.Mean[k] {
			if a.Mean[k][d] != b.Mean[k][d] || a.Sigma[k][d] != b.Sigma[k][d] {
				t.Fatal("FitMixture params not deterministic")
			}
		}
	}
}

func TestFitMixtureMeanNormCap(t *testing.T) {
	pts := [][]float64{{20, 0}, {21, 0}, {20.5, 0.5}}
	m := FitMixture(1, pts, []float64{1, 1, 1}, FitOptions{})
	if n := math.Hypot(m.Mean[0][0], m.Mean[0][1]); n > 8+1e-9 {
		t.Fatalf("component mean norm %g exceeds the cap", n)
	}
}

func TestFitMixtureZeroWeightsFallBack(t *testing.T) {
	pts := [][]float64{{1, 1}, {2, 2}, {3, 3}}
	m := FitMixture(1, pts, []float64{0, 0, 0}, FitOptions{})
	if math.Abs(m.Mean[0][0]-2) > 1e-9 {
		t.Fatalf("zero weights should fall back to uniform: mean %v", m.Mean[0])
	}
}

func TestESS(t *testing.T) {
	// n equal weights → ESS n; one dominant weight → ESS ≈ 1.
	if got := ESS(10, 10); math.Abs(got-10) > 1e-12 {
		t.Fatalf("equal-weight ESS = %g, want 10", got)
	}
	if got := ESS(1.009, 1.0+9*1e-6); got > 1.1 {
		t.Fatalf("degenerate ESS = %g, want ≈1", got)
	}
	if got := ESS(0, 0); got != 0 {
		t.Fatalf("ESS(0,0) = %g, want 0", got)
	}
}

// refLogNormal, refLogDensity, refWeight01 and refFitMixture evaluate
// the mixture formulas with every logarithm taken at its point of use,
// and the weight as exp(log φ − log q) through a log-sum-exp. The
// cached-logarithm fit must reproduce them bit for bit; the closed-form
// Weight01 agrees with refWeight01 within weightTol.
func refLogNormal(z, mu, sigma []float64) float64 {
	s := -0.5 * float64(len(z)) * math.Log(2*math.Pi)
	for d := range z {
		r := (z[d] - mu[d]) / sigma[d]
		s -= math.Log(sigma[d]) + 0.5*r*r
	}
	return s
}

func refLogPhi(dims int, sq float64) float64 {
	return -0.5*float64(dims)*math.Log(2*math.Pi) - 0.5*sq
}

func refLogDensity(m *Mixture, z []float64) float64 {
	var sq float64
	for _, v := range z {
		sq += v * v
	}
	best := math.Inf(-1)
	sum := 0.0
	if m.Defense > 0 {
		best = math.Log(m.Defense) + refLogPhi(len(z), sq)
		sum = 1
	}
	for k := range m.Weight {
		if m.Weight[k] <= 0 {
			continue
		}
		l := math.Log(m.Weight[k]) + refLogNormal(z, m.Mean[k], m.Sigma[k])
		switch {
		case math.IsInf(best, -1):
			best, sum = l, 1
		case l <= best:
			sum += math.Exp(l - best)
		default:
			sum = sum*math.Exp(best-l) + 1
			best = l
		}
	}
	if math.IsInf(best, -1) {
		return best
	}
	return best + math.Log(sum)
}

func refWeight01(m *Mixture, z []float64) float64 {
	var sq float64
	for _, v := range z {
		sq += v * v
	}
	return math.Exp(refLogPhi(len(z), sq) - refLogDensity(m, z))
}

// weightTol is the relative tolerance between Weight01 and refWeight01
// at z. Both exponentiate sums whose terms reach ½|z|², ½Σ_d r_kd² and
// |log w_k − Σ_d log σ_kd| (plus the reference's d/2·log 2π and
// |log α|), so each can be off by a few ulps of the largest such sum,
// and a weight's relative error is its exponent's absolute error.
func weightTol(m *Mixture, z []float64) float64 {
	worst := 0.0
	for k := range m.Weight {
		e := math.Abs(math.Log(m.Weight[k]))
		for d, v := range z {
			r := (v - m.Mean[k][d]) / m.Sigma[k][d]
			e += math.Abs(math.Log(m.Sigma[k][d])) + 0.5*r*r
		}
		worst = max(worst, e)
	}
	scale := 1 + 0.5*sqNorm(z) + worst + 0.5*float64(len(z))*math.Log(2*math.Pi) + math.Abs(math.Log(m.Defense))
	return 16 * 0x1p-52 * scale
}

func refFitMixture(k int, pts [][]float64, w []float64, opts FitOptions) Mixture {
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
		return m
	}
	resp := make([]float64, n*k)
	logw := make([]float64, k)
	for it := 0; it < fitIters; it++ {
		for c := 0; c < k; c++ {
			logw[c] = math.Log(math.Max(m.Weight[c], 1e-12))
		}
		for i, z := range pts {
			best := math.Inf(-1)
			row := resp[i*k : (i+1)*k]
			for c := 0; c < k; c++ {
				row[c] = logw[c] + refLogNormal(z, m.Mean[c], m.Sigma[c])
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
	return m
}

// TestCachedLogsMatchReferenceFormulas pins the cached logarithms as a
// pure speed-up: on a fixed 7-dimensional point set, FitMixture's
// parameters equal the reference fit bit for bit, and the fitted
// mixture's closed-form Weight01 equals the log-space reference within
// weightTol.
func TestCachedLogsMatchReferenceFormulas(t *testing.T) {
	const n, dims = 64, 7
	rng := rand.New(rand.NewSource(1))
	pts := make([][]float64, n)
	w := make([]float64, n)
	for i := range pts {
		pts[i] = make([]float64, dims)
		for d := range pts[i] {
			pts[i][d] = 1.5*rng.NormFloat64() + float64(i%3)
		}
		w[i] = rng.Float64()
	}
	probes := append([][]float64{make([]float64, dims), {6, -6, 0, 1, 2, 3, -4}}, pts...)
	same := func(a, b []float64) bool {
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return len(a) == len(b)
	}
	check := func(name string, got, want Mixture) {
		if !same(got.Weight, want.Weight) || got.Defense != want.Defense {
			t.Fatalf("%s: weights %v/%g, reference %v/%g", name, got.Weight, got.Defense, want.Weight, want.Defense)
		}
		for c := range want.Mean {
			if !same(got.Mean[c], want.Mean[c]) || !same(got.Sigma[c], want.Sigma[c]) {
				t.Fatalf("%s: component %d differs from the reference fit", name, c)
			}
		}
		for _, z := range probes {
			if g, r := got.Weight01(z), refWeight01(&want, z); math.Abs(g-r) > weightTol(&want, z)*r {
				t.Fatalf("%s: Weight01(%v) = %v, reference %v", name, z, g, r)
			}
		}
	}
	check("standard", StandardProposal(), Mixture{Defense: 1})
	for _, c := range []struct {
		name string
		k    int
		w    []float64
		opts FitOptions
	}{
		{"k2-weighted", 2, w, FitOptions{}},
		{"k2-unweighted-wide", 2, nil, FitOptions{SigmaFloor: 1}},
		{"k3-weighted", 3, w, FitOptions{}},
		{"k1", 1, w, FitOptions{}},
	} {
		check(c.name, FitMixture(c.k, pts, c.w, c.opts), refFitMixture(c.k, pts, c.w, c.opts))
	}
}

// FuzzWeight01 builds a 7-dimensional mixture of one or two components
// from seed (means of norm up to 8, sigmas from 0.25 to 4) and weighs
// points out to |z| = radius, at most 40: a random direction, the rays
// along and against each mean, and a draw from each component. Every
// weight must lie in [0, fl(1/α)], and wherever refWeight01 is a
// normal float, agree with it within weightTol.
func FuzzWeight01(f *testing.F) {
	for _, s := range []struct {
		seed   uint64
		comps  uint8
		radius float64
	}{{1, 0, 3}, {2, 1, 8}, {3, 1, 40}, {4, 0, 20}, {5, 1, 0}, {6, 1, 12}} {
		f.Add(s.seed, s.comps, s.radius)
	}
	const dims = 7
	f.Fuzz(func(t *testing.T, seed uint64, comps uint8, radius float64) {
		if !(radius >= 0) {
			radius = 0
		}
		radius = min(radius, 40)
		rng := rand.New(rand.NewSource(int64(seed)))
		// dir returns a uniformly random direction scaled to norm r.
		dir := func(r float64) []float64 {
			v := make([]float64, dims)
			var sq float64
			for d := range v {
				v[d] = rng.NormFloat64()
				sq += v[d] * v[d]
			}
			for d := range v {
				v[d] *= r / math.Sqrt(sq)
			}
			return v
		}
		k := int(comps%2) + 1
		m := Mixture{Defense: DefensiveWeight, Weight: make([]float64, k), Mean: make([][]float64, k), Sigma: make([][]float64, k)}
		for c := range m.Weight {
			m.Weight[c] = 0.05 + rng.Float64()
			m.Mean[c] = dir(8 * rng.Float64())
			m.Sigma[c] = make([]float64, dims)
			for d := range m.Sigma[c] {
				m.Sigma[c][d] = 0.25 * math.Exp(math.Log(16)*rng.Float64())
			}
		}
		normalizeWeights(m.Weight, 1-m.Defense)
		m.cacheLogs()

		zs := [][]float64{dir(radius)}
		for c := range m.Weight {
			mu, sg := m.Mean[c], m.Sigma[c]
			along, against, draw := make([]float64, dims), make([]float64, dims), make([]float64, dims)
			norm := math.Sqrt(sqNorm(mu))
			var dsq float64
			for d := range mu {
				if norm > 0 {
					along[d] = mu[d] * radius / norm
					against[d] = -along[d]
				}
				draw[d] = mu[d] + sg[d]*rng.NormFloat64()*radius/8
				dsq += draw[d] * draw[d]
			}
			if n := math.Sqrt(dsq); n > 40 {
				for d := range draw {
					draw[d] *= 40 / n
				}
			}
			zs = append(zs, along, against, draw)
		}
		limit := 1 / m.Defense
		for _, z := range zs {
			w := m.Weight01(z)
			if !(w >= 0 && w <= limit) {
				t.Fatalf("weight at %v = %v outside [0, %v]; mixture %+v", z, w, limit, m)
			}
			if r := refWeight01(&m, z); r >= 0x1p-1022 && math.Abs(w-r) > weightTol(&m, z)*r {
				t.Fatalf("weight at %v = %v, reference %v (tolerance %.3g); mixture %+v", z, w, r, weightTol(&m, z), m)
			}
		}
	})
}
