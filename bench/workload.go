package main

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand/v2"
	"sort"
	"sync"

	predint "repro"
	"repro/internal/estimator"
)

// workload is one traffic mix: the request stream, how many
// connections drive it, and the topology of daemons that serve it.
type workload struct {
	name string
	why  string
	// conns is the number of client connections, each a closed loop:
	// design-tool callers wait for every reply before sending the next
	// request. At most nproc=2, so the client never oversubscribes the
	// cores the daemon needs.
	conns int
	// workers is the number of worker daemons behind the front; 0 means
	// the front serves alone.
	workers int
	// oneCPU runs the harness and the daemons on a single CPU. On a
	// shared virtual machine a wake-up on another CPU can cost more than
	// a warm answer does and varies with the host's load, so a workload
	// of cheap requests is steady only where no request crosses CPUs.
	oneCPU bool
	// warmup is the number of leading requests of the sequence each
	// set-up sends, untimed, before the daemon counts as ready.
	warmup int
	newSeq func(seed uint64, warmup int) (*sequence, error)
}

var workloads = []workload{
	{
		name:   "serve-warm",
		why:    "repeated queries answered from the warm surface cache, so HTTP, JSON, admission and internal/surface do the work",
		conns:  1,
		oneCPU: true,
		warmup: warmPairs,
		newSeq: newServeWarm,
	},
	{
		name:   "serve-cold",
		why:    "no_surface queries over the estimator ladder at 2 to 6 sigma, so the sampling kernel and the rungs do the work",
		conns:  2,
		warmup: 64,
		newSeq: newServeCold,
	},
	{
		name:   "sizing",
		why:    "yield_target queries, the paper's sizing loop: 40% miss the nominal design and sweep candidates on shared samples",
		conns:  2,
		warmup: 32,
		newSeq: newSizing,
	},
	{
		name:    "scale-out",
		why:     "a front sharding 2048-sample queries into 512-sample shards over two workers, so internal/coordinator does the work",
		conns:   1,
		workers: 2,
		oneCPU:  true,
		warmup:  64,
		newSeq:  newScaleOut,
	},
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// candidate and body mirror predintd's request DTOs field for field:
// the daemon decodes strictly, so a field it does not know is a 400.
type candidate struct {
	RepeaterSize float64 `json:"repeater_size"`
	Repeaters    int     `json:"repeaters"`
}

type body struct {
	Tech        string      `json:"tech"`
	LengthMM    float64     `json:"length_mm"`
	TargetPS    *float64    `json:"target_ps,omitempty"`
	Samples     *int        `json:"samples,omitempty"`
	Seed        uint64      `json:"seed,omitempty"`
	Workers     int         `json:"workers,omitempty"`
	Estimator   string      `json:"estimator,omitempty"`
	TargetSigma *float64    `json:"target_sigma,omitempty"`
	YieldTarget *float64    `json:"yield_target,omitempty"`
	NoSurface   bool        `json:"no_surface,omitempty"`
	Candidates  []candidate `json:"candidates,omitempty"`
}

// yieldRequest is the facade request the daemon builds from the body.
func (b *body) yieldRequest() predint.YieldRequest {
	return predint.YieldRequest{
		Tech:        b.Tech,
		LengthMM:    b.LengthMM,
		TargetPS:    b.TargetPS,
		Samples:     b.Samples,
		Seed:        b.Seed,
		Workers:     b.Workers,
		Estimator:   b.Estimator,
		TargetSigma: b.TargetSigma,
		YieldTarget: b.YieldTarget,
		NoSurface:   b.NoSurface,
	}
}

func (b *body) batchRequest() predint.YieldBatchRequest {
	req := predint.YieldBatchRequest{YieldRequest: b.yieldRequest()}
	for _, c := range b.Candidates {
		req.Candidates = append(req.Candidates, predint.YieldCandidate{RepeaterSize: c.RepeaterSize, Repeaters: c.Repeaters})
	}
	return req
}

// spec is one distinct request of a workload, with its encoded body.
type spec struct {
	body body
	path string
	raw  []byte
}

func (s *spec) batch() bool { return len(s.body.Candidates) > 0 }

// sequence is a workload's request stream: the distinct requests it
// draws from (specs, indexed by key) and the key of every request in
// send order. Both grow on demand and are a pure function of the seed,
// so every set-up's warm-up, the measured run and the traced replay
// see the same request at the same index.
type sequence struct {
	mu      sync.Mutex
	seed    uint64
	rng     *rand.Rand
	specs   []*spec
	byID    map[string]int
	keys    []int
	classes map[string]*class
	// draw returns the key of the next request from r; called with mu
	// held. The warmup leading requests draw from a generator of fixed
	// seed, so every seed's set-up sends requests of the same cost and
	// setup_s does not move with the seed.
	draw    func(r *rand.Rand) (int, error)
	warmup  int
	warmRNG *rand.Rand
	// goldens holds answers a workload computed while choosing its
	// requests; the oracle computes the rest.
	goldens map[int]*golden
}

func newSequence(seed uint64, warmup int) *sequence {
	return &sequence{
		seed:    seed,
		rng:     rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15)),
		warmup:  warmup,
		warmRNG: rand.New(rand.NewPCG(0, 0x9e3779b97f4a7c15)),
		byID:    map[string]int{},
		classes: map[string]*class{},
		goldens: map[int]*golden{},
	}
}

// key returns the key of the i-th request of the stream.
func (s *sequence) key(i int) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.keys) <= i {
		r := s.rng
		if len(s.keys) < s.warmup {
			r = s.warmRNG
		}
		k, err := s.draw(r)
		if err != nil {
			return 0, err
		}
		s.keys = append(s.keys, k)
	}
	return s.keys[i], nil
}

func (s *sequence) spec(key int) *spec {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.specs[key]
}

// request returns the i-th request of the stream and its key.
func (s *sequence) request(i int) (int, *spec, error) {
	k, err := s.key(i)
	if err != nil {
		return 0, nil, err
	}
	return k, s.spec(k), nil
}

// intern returns the key of the request named id, registering b under
// it on first use. The body's PRNG seed derives from the workload seed
// and id, so a request is the same whichever index first draws it.
func (s *sequence) intern(id string, b body) (int, error) {
	if k, ok := s.byID[id]; ok {
		return k, nil
	}
	b.Seed = s.requestSeed(id)
	raw, err := json.Marshal(b)
	if err != nil {
		return 0, err
	}
	sp := &spec{body: b, path: "/v1/yield", raw: raw}
	if sp.batch() {
		sp.path = "/v1/yield/batch"
	}
	s.specs = append(s.specs, sp)
	s.byID[id] = len(s.specs) - 1
	return len(s.specs) - 1, nil
}

func (s *sequence) requestSeed(id string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s", s.seed, id)
	return h.Sum64() | 1
}

// class returns the calibrated link class, computing it on first use.
func (s *sequence) class(tech string, lengthMM float64) (*class, error) {
	id := fmt.Sprintf("%s|%g", tech, lengthMM)
	if c, ok := s.classes[id]; ok {
		return c, nil
	}
	c, err := calibrate(tech, lengthMM)
	if err != nil {
		return nil, err
	}
	s.classes[id] = c
	return c, nil
}

// class is a link class — technology and routed length — with what it
// takes to turn a sigma level into a delay target: the nominal design's
// delay d0 and one point (probe, probeBeta) of its worst-case distance
// as a function of the target. Delays are in ps.
type class struct {
	tech      string
	lengthMM  float64
	repeaters int
	d0        float64
	probe     float64
	probeBeta float64
	targets   map[float64]float64 // by worst-case distance
}

func calibrate(tech string, lengthMM float64) (*class, error) {
	nom, err := predint.LinkYieldNominalCtx(context.Background(), predint.YieldRequest{Tech: tech, LengthMM: lengthMM})
	if err != nil {
		return nil, fmt.Errorf("calibrate %s %g mm: %w", tech, lengthMM, err)
	}
	c := &class{tech: tech, lengthMM: lengthMM, repeaters: nom.Repeaters, d0: nom.NominalDelay * 1e12, targets: map[float64]float64{}}
	c.probe = math.Round(1.1*c.d0*1000) / 1000
	if c.probeBeta, err = c.beta(c.probe); err != nil {
		return nil, err
	}
	return c, nil
}

// beta is the worst-case distance of the class's nominal design at a
// delay target, from the facade's analytic wcd rung.
func (c *class) beta(targetPS float64) (float64, error) {
	res, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), predint.YieldRequest{
		Tech: c.tech, LengthMM: c.lengthMM, TargetPS: &targetPS, Estimator: "wcd",
	})
	if err != nil {
		return 0, fmt.Errorf("worst-case distance of %s %g mm at %g ps: %w", c.tech, c.lengthMM, targetPS, err)
	}
	b := estimator.SigmaOf(res.FailProb)
	if !(b > 0) || math.IsInf(b, 0) {
		return 0, fmt.Errorf("worst-case distance of %s %g mm at %g ps is %g", c.tech, c.lengthMM, targetPS, b)
	}
	return b, nil
}

// targetPS returns the delay target, rounded to 1 fs, at which the
// nominal design's worst-case distance is sigma to within 0.05, so the
// first-order failure probability is Φ(−sigma). The distance grows
// slower than linearly in the target, so it is found by secant steps
// from the probe point.
func (c *class) targetPS(sigma float64) (*float64, error) {
	if t, ok := c.targets[sigma]; ok {
		return &t, nil
	}
	prevT, prevB := c.d0, 0.0
	t, b := c.probe, c.probeBeta
	for i := 0; math.Abs(b-sigma) > 0.05; i++ {
		if i == 10 || b == prevB {
			return nil, fmt.Errorf("no delay target of %s %g mm reaches worst-case distance %g", c.tech, c.lengthMM, sigma)
		}
		next := math.Round((t+(sigma-b)*(t-prevT)/(b-prevB))*1000) / 1000
		nb, err := c.beta(next)
		if err != nil {
			return nil, err
		}
		prevT, prevB, t, b = t, b, next, nb
	}
	c.targets[sigma] = t
	return &t, nil
}

var techs = []string{"90nm", "65nm", "45nm"}

type link struct {
	tech     string
	lengthMM float64
}

// grid lists the link classes of every technology at lengths from 2 mm
// up to, not including, maxMM in steps of stepMM.
func grid(stepMM, maxMM float64) []link {
	var out []link
	for _, t := range techs {
		for i := 0; 2+float64(i)*stepMM < maxMM; i++ {
			out = append(out, link{t, 2 + float64(i)*stepMM})
		}
	}
	return out
}

// fixedLinks is a fixed set of 24 link classes of the 0.25 mm grid, in a
// fixed shuffled order. Workloads rank it by zipf: the seed chooses
// the requests, not which links they fall on, so the cost of the
// average request does not move with the seed.
func fixedLinks() []link {
	g := grid(0.25, 10.25)
	out := make([]link, 24)
	for i, j := range rand.New(rand.NewPCG(24, 99)).Perm(len(g))[:len(out)] {
		out[i] = g[j]
	}
	return out
}

// zipf draws ranks 0..n-1 with probability proportional to
// 1/(rank+1)^s, by inverting its cumulative weights.
type zipf []float64

func newZipf(n int, s float64) zipf {
	z := make(zipf, n)
	total := 0.0
	for k := range z {
		total += math.Pow(float64(k+1), -s)
		z[k] = total
	}
	for k := range z {
		z[k] /= total
	}
	z[n-1] = 1
	return z
}

func (z zipf) draw(r *rand.Rand) int { return sort.SearchFloat64s(z, r.Float64()) }

const (
	// warmPairs is the number of (link class, target) pairs serve-warm
	// prewarms and then queries.
	warmPairs = 256
	// warmMissRate is serve-warm's share of queries on a link class no
	// earlier query used. Each misses, samples and records — a write
	// among the reads. At this rate a 20 s run adds about 1500 classes,
	// under the surface's 4096-class cap.
	warmMissRate = 0.005
	zipfS        = 1.1
)

// newServeWarm: warmPairs distinct (class, target) pairs, each sent once
// in the warm-up (the surface prewarm), then drawn zipf(1.1) by a
// seed-permuted rank; warmMissRate of the draws are instead a fresh
// link class with a length no other query has.
func newServeWarm(seed uint64, warmup int) (*sequence, error) {
	s := newSequence(seed, warmup)
	sigmas := []float64{1, 1.5, 2, 2.5}
	g := grid(0.25, 10.25)
	for _, p := range s.rng.Perm(len(g) * len(sigmas))[:warmPairs] {
		if _, err := s.warmQuery(fmt.Sprintf("pair|%d", p), g[p/len(sigmas)], sigmas[p%len(sigmas)]); err != nil {
			return nil, err
		}
	}
	z := newZipf(warmPairs, zipfS)
	misses := 0
	s.draw = func(r *rand.Rand) (int, error) {
		if i := len(s.keys); i < warmPairs {
			return i, nil
		}
		if r.Float64() < warmMissRate {
			l := link{techs[r.IntN(len(techs))], 2.00005 + 0.0001*float64(misses)}
			misses++
			return s.warmQuery(fmt.Sprintf("miss|%d", misses), l, sigmas[r.IntN(len(sigmas))])
		}
		return z.draw(r), nil
	}
	return s, nil
}

func (s *sequence) warmQuery(id string, l link, sigma float64) (int, error) {
	c, err := s.class(l.tech, l.lengthMM)
	if err != nil {
		return 0, err
	}
	t, err := c.targetPS(sigma)
	if err != nil {
		return 0, err
	}
	return s.intern(id, body{Tech: l.tech, LengthMM: l.lengthMM, TargetPS: t, Samples: predint.Int(4096), Workers: 1})
}

// rung is one estimator-ladder entry of serve-cold and scale-out.
type rung struct {
	estimator string
	samples   int
	sigmas    []float64
	// certify routes the query automatically with target_sigma set and
	// puts the delay target where the worst-case distance is one sigma
	// beyond it, clear of the pre-filter's half-sigma margin, so the
	// answer is analytic.
	certify bool
}

// coldRungs are in zipf rank order: the cheap rungs most often, the
// AIS deep tail rarely enough that it sets the p95.
var coldRungs = []rung{
	{estimator: "mc", samples: 4096, sigmas: []float64{2}},
	{estimator: "qmc", samples: 2048, sigmas: []float64{2, 3}},
	{estimator: "isle", samples: 4096, sigmas: []float64{3, 4}},
	{estimator: "ais", samples: 4096, sigmas: []float64{5, 6}},
	{samples: 4096, sigmas: []float64{3, 4, 5, 6}, certify: true},
}

// scaleRungs are the shardable rungs; at 2048 samples and 512-sample
// shards each query is four shards.
var scaleRungs = []rung{
	{estimator: "mc", samples: 2048, sigmas: []float64{2}},
	{estimator: "qmc", samples: 2048, sigmas: []float64{2.5}},
	{estimator: "isle", samples: 2048, sigmas: []float64{3.5}},
}

// batchRungs are the rungs of serve-cold's 8-candidate batches.
var batchRungs = []rung{
	{estimator: "mc", samples: 2048, sigmas: []float64{2}},
	{estimator: "qmc", samples: 2048, sigmas: []float64{2.5}},
}

const coldBatchRate = 0.2

// query registers the request of rung r at sigma on class c; with batch
// set it scores eight candidates around the nominal design instead.
func (s *sequence) query(c *class, r rung, sigma float64, batch bool) (int, error) {
	t, err := c.targetPS(sigma)
	if err != nil {
		return 0, err
	}
	b := body{
		Tech: c.tech, LengthMM: c.lengthMM, TargetPS: t,
		Samples: predint.Int(r.samples), Workers: 1, Estimator: r.estimator, NoSurface: true,
	}
	if r.certify {
		b.TargetSigma = predint.Float(sigma)
		if b.TargetPS, err = c.targetPS(sigma + 1); err != nil {
			return 0, err
		}
	}
	if batch {
		for _, size := range []float64{20, 40, 60, 80} {
			for _, n := range []int{c.repeaters, c.repeaters + 1} {
				b.Candidates = append(b.Candidates, candidate{RepeaterSize: size, Repeaters: n})
			}
		}
	}
	return s.intern(fmt.Sprintf("%s|%g|%s|%d|%g|%v|%v", c.tech, c.lengthMM, r.estimator, r.samples, sigma, r.certify, batch), b)
}

// ladder registers every query of rungs (batches of them with batch
// set) on each link: keys[link][rung][sigma index].
func (s *sequence) ladder(links []link, rungs []rung, batch bool) ([][][]int, error) {
	keys := make([][][]int, len(links))
	for i, l := range links {
		c, err := s.class(l.tech, l.lengthMM)
		if err != nil {
			return nil, err
		}
		keys[i] = make([][]int, len(rungs))
		for j, r := range rungs {
			for _, sigma := range r.sigmas {
				k, err := s.query(c, r, sigma, batch)
				if err != nil {
					return nil, err
				}
				keys[i][j] = append(keys[i][j], k)
			}
		}
	}
	return keys, nil
}

// newServeCold: zipf(1.1) over fixedLinks; a fixed 20% are 8-candidate
// batches, the rest single queries whose rung is zipf(1.1)-ranked over
// coldRungs. The rung mix does not depend on the seed, so neither does
// the cost of the average query.
func newServeCold(seed uint64, warmup int) (*sequence, error) {
	s := newSequence(seed, warmup)
	links := fixedLinks()
	single, err := s.ladder(links, coldRungs, false)
	if err != nil {
		return nil, err
	}
	batches, err := s.ladder(links, batchRungs, true)
	if err != nil {
		return nil, err
	}
	zc := newZipf(len(links), zipfS)
	zr := newZipf(len(coldRungs), zipfS)
	s.draw = func(r *rand.Rand) (int, error) {
		l := zc.draw(r)
		if r.Float64() < coldBatchRate {
			return batches[l][r.IntN(len(batchRungs))][0], nil
		}
		ks := single[l][zr.draw(r)]
		return ks[r.IntN(len(ks))], nil
	}
	return s, nil
}

// newScaleOut: zipf(1.1) over fixedLinks, the three shardable rungs
// with equal odds.
func newScaleOut(seed uint64, warmup int) (*sequence, error) {
	s := newSequence(seed, warmup)
	links := fixedLinks()
	keys, err := s.ladder(links, scaleRungs, false)
	if err != nil {
		return nil, err
	}
	zc := newZipf(len(links), zipfS)
	s.draw = func(r *rand.Rand) (int, error) {
		return keys[zc.draw(r)][r.IntN(len(scaleRungs))][0], nil
	}
	return s, nil
}

// Sizing delay targets, in sigma from the one at which the nominal
// design just meets its yield target: where no candidate reaches a
// target, the next one in its list is tried. A design several sigma
// faster than the nominal one rarely exists — the candidate grid moves
// the delay by a fraction of a sigma — so a missing target must sit
// close. A passing target can still miss when the nominal design's
// samples happen to fail, hence a looser second one.
var (
	sizingPass = []float64{0.75, 1.5}
	sizingMiss = []float64{-0.15, -0.05}
)

// sizingMissRate is the share of sizing queries drawn with a missing
// target. A sweep costs several times a passing query, so latency is
// bimodal; below one half the p50 stays inside the passing mode
// instead of flipping between the modes from seed to seed.
const sizingMissRate = 0.4

// newSizing: uniform over 48 link classes (3 technologies × 2–9.5 mm)
// and four yield targets in [0.99, 0.9999]. A query's delay target lets
// the nominal design pass, or, at sizingMissRate, makes it miss so that
// the search sweeps candidates on shared samples. Every query is
// answered in-process first, so that each target is one some design
// reaches — a missing target no candidate reaches gives way to the
// passing one — and the answers serve as the oracle's goldens.
func newSizing(seed uint64, warmup int) (*sequence, error) {
	s := newSequence(seed, warmup)
	type query struct {
		id string
		b  body
		g  *golden
	}
	// variant is one list of targets to try; ok is the first reachable.
	type variant struct {
		tries []query
		ok    int
	}
	var pairs [][2]*variant // per (link, yield): passing and missing
	for _, l := range grid(0.5, 10) {
		c, err := s.class(l.tech, l.lengthMM)
		if err != nil {
			return nil, err
		}
		for _, y := range []float64{0.99, 0.995, 0.999, 0.9999} {
			var pair [2]*variant
			for i, offs := range [][]float64{sizingPass, sizingMiss} {
				pair[i] = &variant{ok: -1}
				for _, off := range offs {
					t, err := c.targetPS(estimator.PhiInv(y) + off)
					if err != nil {
						return nil, err
					}
					id := fmt.Sprintf("%s|%g|%g|%g", l.tech, l.lengthMM, y, off)
					pair[i].tries = append(pair[i].tries, query{id: id, b: body{
						Tech: l.tech, LengthMM: l.lengthMM, TargetPS: t,
						Seed: s.requestSeed(id), YieldTarget: predint.Float(y), Workers: 1,
					}})
				}
			}
			pairs = append(pairs, pair)
		}
	}
	for try := 0; ; try++ {
		var todo []*query
		var from []*variant
		for _, pair := range pairs {
			for _, v := range pair {
				if v.ok < 0 && try < len(v.tries) {
					todo, from = append(todo, &v.tries[try]), append(from, v)
				}
			}
		}
		if len(todo) == 0 {
			break
		}
		parallel(len(todo), func(i int) { todo[i].g = computeGolden(&spec{body: todo[i].b}) })
		for i, q := range todo {
			if q.g.err == nil {
				from[i].ok = try
			}
		}
	}
	var keys [][2]int // per (link, yield): the passing and the missing key
	for _, pair := range pairs {
		var k [2]int
		for i, v := range pair {
			if v.ok < 0 {
				k[i] = k[0]
				continue
			}
			q := v.tries[v.ok]
			var err error
			if k[i], err = s.intern(q.id, q.b); err != nil {
				return nil, err
			}
			s.goldens[k[i]] = q.g
		}
		if pair[0].ok >= 0 {
			keys = append(keys, k)
		}
	}
	s.draw = func(r *rand.Rand) (int, error) {
		k := keys[r.IntN(len(keys))]
		if r.Float64() < sizingMissRate {
			return k[1], nil
		}
		return k[0], nil
	}
	return s, nil
}
