package variation

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/estimator"
	"repro/internal/model"
	"repro/internal/tech"
	"repro/internal/wire"
)

// scalarRef is the lane kernel's per-sample reference: sample i's draw,
// re-derived from the Stream, Sobol and mixture primitives rather than
// from drawPhase, and each candidate scored by the scalar evaluator,
// LinkScenario.DelayScratch, on that draw. kind selects the draw:
// ziggurat normals (mc, isle), scrambled Sobol points (qmc) or a draw
// from the AIS proposal prop (ais, whose row is the delay itself).
type scalarRef struct {
	ms     *MultiScenario
	kind   estimator.Kind
	seed   uint64
	shifts [][]float64 // per-candidate ISLE mean shifts; nil entries are unshifted
	prop   estimator.Mixture
	qshift [qmcReplicates][]uint64
	st     Stream
	s      Scratch
	eps, z [Dims]float64
}

func newScalarRef(ms *MultiScenario, kind estimator.Kind, seed uint64, shifts [][]float64) *scalarRef {
	r := &scalarRef{ms: ms, kind: kind, seed: seed, shifts: shifts, prop: estimator.StandardProposal()}
	for q := range r.qshift {
		r.qshift[q] = estimator.SobolShift(seed, uint64(q), Dims)
	}
	return r
}

// draw returns sample i's base draw (for AIS, the proposal draw).
func (r *scalarRef) draw(i int) []float64 {
	switch r.kind {
	case estimator.QMC:
		estimator.SobolNormal(uint64(i/qmcReplicates), r.qshift[i%qmcReplicates], r.eps[:])
	case estimator.AIS:
		r.st.Reset(r.seed, uint64(i))
		u := r.st.Float64()
		for d := range r.eps {
			r.eps[d] = r.st.NormZig()
		}
		r.prop.SampleInto(u, r.eps[:], r.z[:])
		return r.z[:]
	default:
		r.st.Reset(r.seed, uint64(i))
		for d := range r.eps {
			r.eps[d] = r.st.NormZig()
		}
	}
	return r.eps[:]
}

// row returns candidate c's contribution at sample i — its failure
// indicator, weighted by the likelihood ratio under an ISLE shift, or
// for AIS the delay — and the error DelayScratch raises there.
func (r *scalarRef) row(i, c int) (float64, error) {
	z := r.draw(i)
	w := 1.0
	if r.shifts != nil && r.shifts[c] != nil {
		// z ← ε + θ, w = φ(z)/φ(z−θ) = exp(−⟨θ,z⟩ + |θ|²/2).
		var dot, sq float64
		for d, t := range r.shifts[c] {
			r.z[d] = z[d] + t
			dot += t * r.z[d]
			sq += t * t
		}
		w = math.Exp(-dot + sq/2)
		z = r.z[:]
	}
	d, err := r.ms.scenario(c).DelayScratch(&r.s, z)
	if err != nil || r.kind == estimator.AIS {
		return d, err
	}
	if d > r.ms.Target {
		return w, nil
	}
	return 0, nil
}

// refFail is one (sample, candidate) pair the reference rejects.
type refFail struct {
	i, c int
	err  error
}

// fails walks samples [start, start+n) in index order and each sample's
// active candidates in order, and returns every error DelayScratch
// raises, in that order: the first is the one a lane must report.
func (r *scalarRef) fails(start, n int, active []bool) []refFail {
	var out []refFail
	for i := start; i < start+n; i++ {
		for c := range r.ms.Specs {
			if !active[c] {
				continue
			}
			if _, err := r.row(i, c); err != nil {
				out = append(out, refFail{i, c, err})
			}
		}
	}
	return out
}

// laneShift is a fixed mean-shift direction scaled by s.
func laneShift(s float64) []float64 {
	th := []float64{0.5, -0.3, 0.8, -0.6, 0.2, 0.4, -0.1}
	for d := range th {
		th[d] *= s
	}
	return th
}

// mixedSweep is sweepSpecs with candidates 1 and 3 on a shielded
// intermediate-layer segment, so no wire extraction is shared.
func mixedSweep(tc *tech.Technology, seg wire.Segment) []model.LineSpec {
	specs := sweepSpecs(seg)
	segB := wire.NewSegmentOn(tc, tc.Intermediate, 3e-3, wire.Shielded)
	specs[1].Segment = segB
	specs[3].Segment = segB
	specs[3].N = 9
	return specs
}

// allActive marks k candidates active.
func allActive(k int) []bool {
	a := make([]bool, k)
	for c := range a {
		a[c] = true
	}
	return a
}

// fittedProposal is an adapted AIS proposal: a two-component mixture
// fitted to points around a shifted mean, so draws come from the
// defensive and both fitted components.
func fittedProposal(t *testing.T) estimator.Mixture {
	t.Helper()
	var st Stream
	pts := make([][]float64, 64)
	for j := range pts {
		st.Reset(9, uint64(j))
		pts[j] = laneShift(1.5)
		for d := range pts[j] {
			pts[j][d] += 0.3 * st.NormZig()
		}
	}
	m := estimator.FitMixture(aisComponents, pts, nil, estimator.FitOptions{})
	if len(m.Weight) != aisComponents {
		t.Fatalf("fitted proposal carries %d adapted components, want %d", len(m.Weight), aisComponents)
	}
	return m
}

// TestLaneBitIdenticalToScalar drives laneKernel.eval directly in every
// mode — plain sampling on a shared and on a mixed segment, ISLE with a
// shift per candidate (one unshifted, one inactive), QMC with candidate
// 0 inactive, and AIS drawing from an adapted mixture — over lane ranges
// that neither start nor end on a lane boundary, and holds every
// contribution row to the scalar evaluator, LinkScenario.DelayScratch,
// on the same draw, bit for bit. In AIS mode the stored draw and its
// importance weight are held to the reference too, and rows of inactive
// candidates must stay untouched.
func TestLaneBitIdenticalToScalar(t *testing.T) {
	tc := tech.MustLookup("90nm")
	coeffs := model.MustDefault("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	multi := func(specs []model.LineSpec, shifts [][]float64) *MultiScenario {
		return &MultiScenario{Base: tc, Coeffs: coeffs, Space: DefaultSpace(), Specs: specs, Target: 940e-12, Shifts: shifts}
	}
	sc := testScenario(t, 520e-12)
	single := &MultiScenario{Base: sc.Base, Coeffs: sc.Coeffs, Space: sc.Space, Specs: []model.LineSpec{sc.Spec}, Target: sc.Target}

	adapted := fittedProposal(t)

	const samples = 2048
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	for _, m := range []struct {
		name   string
		ms     *MultiScenario
		kind   estimator.Kind
		active []bool
		prop   *estimator.Mixture
	}{
		{"mc-shared", multi(sweepSpecs(seg), nil), estimator.MC, allActive(4), nil},
		{"mc-mixed", multi(mixedSweep(tc, seg), nil), estimator.MC, []bool{true, true, false, true}, nil},
		{"isle-mixed", multi(mixedSweep(tc, seg), [][]float64{laneShift(0.6), laneShift(-0.4), nil, laneShift(1.1)}), estimator.ISLE, []bool{true, false, true, true}, nil},
		{"qmc-shared", multi(sweepSpecs(seg), nil), estimator.QMC, []bool{false, true, true, true}, nil},
		{"ais", single, estimator.AIS, allActive(1), &adapted},
	} {
		ro := YieldOptions{Samples: samples, Seed: 11, Estimator: m.kind}.runOptions().withDefaults()
		d, err := newDriver(context.Background(), m.ms, ro, m.kind)
		if err != nil {
			t.Fatal(err)
		}
		ref := newScalarRef(m.ms, m.kind, ro.Seed, m.ms.Shifts)
		if m.prop != nil {
			d.lk.ais.prop, ref.prop = *m.prop, *m.prop
		}
		K := len(m.ms.Specs)
		fails, passes := 0, 0
		for _, r := range []struct{ start, n int }{{5, 1}, {37, 50}, {69, laneSize}, {1000, laneSize}, {samples - 13, 13}} {
			rows := make([]float64, r.n*K)
			for j := range rows {
				rows[j] = sentinel
			}
			if err := d.lk.eval(d.lsc[0], r.start, r.n, rows, K, m.active); err != nil {
				t.Fatalf("%s [%d,%d): %v", m.name, r.start, r.start+r.n, err)
			}
			for k := 0; k < r.n; k++ {
				i := r.start + k
				if a := d.lk.ais; a != nil {
					z := ref.draw(i)
					if !reflect.DeepEqual(a.zs[i*Dims:(i+1)*Dims], z) {
						t.Fatalf("%s sample %d: lane draw %v, reference %v", m.name, i, a.zs[i*Dims:(i+1)*Dims], z)
					}
					if w := ref.prop.Weight01(z); math.Float64bits(a.weights[i]) != math.Float64bits(w) {
						t.Fatalf("%s sample %d: lane weight %v, reference %v", m.name, i, a.weights[i], w)
					}
				}
				for c := 0; c < K; c++ {
					got := rows[k*K+c]
					if !m.active[c] {
						if math.Float64bits(got) != math.Float64bits(sentinel) {
							t.Fatalf("%s sample %d: inactive candidate %d written (%v)", m.name, i, c, got)
						}
						continue
					}
					want, err := ref.row(i, c)
					if err != nil {
						t.Fatalf("%s sample %d candidate %d: reference error %v", m.name, i, c, err)
					}
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s sample %d candidate %d: lane %v (%#016x), DelayScratch %v (%#016x)",
							m.name, i, c, got, math.Float64bits(got), want, math.Float64bits(want))
					}
					if want != 0 {
						fails++
					} else {
						passes++
					}
				}
			}
		}
		d.close()
		if m.kind != estimator.AIS && (fails == 0 || passes == 0) {
			t.Fatalf("%s: %d failing and %d passing rows; the target no longer splits the samples", m.name, fails, passes)
		}
	}
}

// TestDrawPhaseWedgeAndTail holds drawPhase's unrolled ziggurat to a
// per-sample Stream.Reset + NormZig loop, bit for bit, on lanes picked
// so their draws leave the fast path through the wedge and through the
// layer-0 tail. A tail draw is rare (~6e-4 per draw), so lanes met at
// random seldom hold one. Each seed's first tail draw is also pinned to
// the bits the single-loop NormZig drew before its fast path was split
// out, with both signs among them.
func TestDrawPhaseWedgeAndTail(t *testing.T) {
	sc := testScenario(t, 520e-12)
	ms := &MultiScenario{Base: sc.Base, Coeffs: sc.Coeffs, Space: sc.Space, Specs: []model.LineSpec{sc.Spec}, Target: sc.Target}
	// escapes counts sample i's draws whose first output misses the
	// fast path, in layer 0 (the tail) and in the other layers (the
	// wedge).
	escapes := func(seed uint64, i int) (tail, wedge int) {
		var st Stream
		st.Reset(seed, uint64(i))
		for d := 0; d < Dims; d++ {
			peek := st
			u := peek.Uint64()
			if layer := u & 127; u>>11 >= zigK[layer] {
				if layer == 0 {
					tail++
				} else {
					wedge++
				}
			}
			st.NormZig()
		}
		return tail, wedge
	}
	firstTail := map[uint64]struct {
		i, dim int
		bits   uint64
	}{
		1: {64, 6, 0xc00c53d72755c5ea},
		2: {289, 0, 0x400f8112f9b74bd3},
		3: {81, 2, 0x400e78f07b3b154e},
	}
	tails, wedges := 0, 0
	for _, seed := range []uint64{1, 2, 3} {
		// The first sample with a tail draw, inside a lane that starts
		// off the lane grid, and a short lane after it.
		first := 0
		for tl, _ := escapes(seed, first); tl == 0; tl, _ = escapes(seed, first) {
			first++
		}
		pin := firstTail[seed]
		if first != pin.i {
			t.Fatalf("seed %d: first tail draw at sample %d, want %d", seed, first, pin.i)
		}
		start := max(first-17, 0)
		for _, r := range []struct{ start, n int }{{start, laneSize}, {start + laneSize, 13}} {
			ro := YieldOptions{Samples: 4096, Seed: seed}.runOptions().withDefaults()
			d, err := newDriver(context.Background(), ms, ro, estimator.MC)
			if err != nil {
				t.Fatal(err)
			}
			ls := d.lsc[0]
			d.lk.drawPhase(ls, r.start, r.n)
			var st Stream
			for k := 0; k < r.n; k++ {
				i := r.start + k
				tl, wg := escapes(seed, i)
				tails += tl
				wedges += wg
				st.Reset(seed, uint64(i))
				for dim := 0; dim < Dims; dim++ {
					got := ls.epsT[dim][k]
					if want := st.NormZig(); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d sample %d draw %d: drawPhase %v, NormZig %v", seed, i, dim, got, want)
					}
					if i == pin.i && dim == pin.dim && math.Float64bits(got) != pin.bits {
						t.Fatalf("seed %d sample %d tail draw %d: %v, want %v", seed, i, dim, got, math.Float64frombits(pin.bits))
					}
				}
			}
			d.close()
		}
	}
	if tails == 0 || wedges == 0 {
		t.Fatalf("%d tail and %d wedge draws in the lanes; the fixture lost its teeth", tails, wedges)
	}
	t.Logf("%d tail and %d wedge draws", tails, wedges)
}

// TestDrawPhaseAIS holds drawPhase's AIS branch to a per-sample
// reference, bit for bit: Stream.Reset, the component selector
// (Float64), seven NormZig normals, Mixture.SampleInto and
// Mixture.Weight01. Every epsT entry, every stored draw and every
// stored weight must match, on lanes of 1, 13, 63 and 64 samples of a
// stage that starts at a non-zero offset, under the standard proposal
// and a fitted two-component mixture. The lanes must hold draws from
// the defensive and both fitted components, a wedge draw and a tail
// draw, or the fixture has lost its teeth.
func TestDrawPhaseAIS(t *testing.T) {
	sc := testScenario(t, 520e-12)
	ms := &MultiScenario{Base: sc.Base, Coeffs: sc.Coeffs, Space: sc.Space, Specs: []model.LineSpec{sc.Spec}, Target: sc.Target}
	const seed, base, samples = 3, 1000, 4096
	// escapes counts sample i's normals whose first output misses the
	// ziggurat's fast path, in layer 0 (the tail) and in the other
	// layers (the wedge). The selector's output comes first.
	escapes := func(i int) (tail, wedge int) {
		var st Stream
		st.Reset(seed, uint64(i))
		st.Float64()
		for d := 0; d < Dims; d++ {
			peek := st
			u := peek.Uint64()
			if layer := u & 127; u>>11 >= zigK[layer] {
				if layer == 0 {
					tail++
				} else {
					wedge++
				}
			}
			st.NormZig()
		}
		return tail, wedge
	}
	// The 64-sample lane holds the first tail draw past base+200, off
	// the lane grid.
	first := base + 200
	for tl, _ := escapes(first); tl == 0; tl, _ = escapes(first) {
		first++
	}
	lanes := []struct{ start, n int }{{base, 1}, {base + 37, 13}, {base + 101, 63}, {first - 17, laneSize}}
	tails, wedges := 0, 0
	for _, l := range lanes {
		for i := l.start; i < l.start+l.n; i++ {
			tl, wg := escapes(i)
			tails += tl
			wedges += wg
		}
	}
	if tails == 0 || wedges == 0 {
		t.Fatalf("%d tail and %d wedge draws in the lanes; the fixture lost its teeth", tails, wedges)
	}

	fitted := fittedProposal(t)
	var branches [1 + aisComponents]int // defensive, then each component
	for _, p := range []struct {
		name string
		prop estimator.Mixture
	}{{"standard", estimator.StandardProposal()}, {"fitted", fitted}} {
		ro := YieldOptions{Samples: samples, Seed: seed, Estimator: estimator.AIS}.runOptions().withDefaults()
		d, err := newDriver(context.Background(), ms, ro, estimator.AIS)
		if err != nil {
			t.Fatal(err)
		}
		a, ls := d.lk.ais, d.lsc[0]
		a.prop, a.base = p.prop, base
		var st Stream
		var eps, z [Dims]float64
		for _, l := range lanes {
			d.lk.drawPhase(ls, l.start, l.n)
			for k := 0; k < l.n; k++ {
				i := l.start + k
				st.Reset(seed, uint64(i))
				u := st.Float64()
				for dim := range eps {
					eps[dim] = st.NormZig()
				}
				p.prop.SampleInto(u, eps[:], z[:])
				w := p.prop.Weight01(z[:])
				j := i - base
				for dim, want := range z {
					if got := ls.epsT[dim][k]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s sample %d dim %d: epsT %v, reference %v", p.name, i, dim, got, want)
					}
					if got := a.zs[j*Dims+dim]; math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s sample %d dim %d: stored draw %v, reference %v", p.name, i, dim, got, want)
					}
				}
				if got := a.weights[j]; math.Float64bits(got) != math.Float64bits(w) {
					t.Fatalf("%s sample %d: stored weight %v, reference %v", p.name, i, got, w)
				}
				if p.name == "fitted" {
					// SampleInto's branch: the defensive slice, then each
					// component's weight in turn.
					b, v := 0, u-p.prop.Defense
					for v >= 0 && b < aisComponents {
						v -= p.prop.Weight[b]
						b++
					}
					branches[b]++
				}
			}
		}
		d.close()
	}
	for b, c := range branches {
		if c == 0 {
			t.Fatalf("no fitted-proposal draw from branch %d (0 is the defensive one) among %v; the fixture lost its teeth", b, branches)
		}
	}
	t.Logf("%d tail and %d wedge draws; fitted-proposal draws per branch %v", tails, wedges, branches)
}

// TestDrawPhaseQMC holds drawPhase's QMC branch to the per-sample
// reference, estimator.SobolNormal of point i/R under replicate i%R's
// shift, bit for bit, on lanes of 1, 13, 63 and 64 samples that start
// off the replicate grid and cross the point-index boundaries 255→256
// and 1023→1024. The lanes must hold draws from both tails of Φ⁻¹'s
// rational approximation and draws where Erfc takes its exponential
// branch (|x| ≥ 1.25·√2), or the fixture has lost its teeth.
func TestDrawPhaseQMC(t *testing.T) {
	sc := testScenario(t, 520e-12)
	ms := &MultiScenario{Base: sc.Base, Coeffs: sc.Coeffs, Space: sc.Space, Specs: []model.LineSpec{sc.Spec}, Target: sc.Target}
	lanes := []struct{ start, n int }{
		{3, 1}, {2043, 13}, {2013, laneSize}, {2047, 1}, {8165, 63}, {8157, laneSize}, {8191, 13},
	}
	var lower, upper, expBranch int
	var want, u [Dims]float64
	for _, seed := range []uint64{1, 2} {
		ro := YieldOptions{Samples: 1 << 14, Seed: seed}.runOptions().withDefaults()
		d, err := newDriver(context.Background(), ms, ro, estimator.QMC)
		if err != nil {
			t.Fatal(err)
		}
		var shifts [qmcReplicates][]uint64
		for r := range shifts {
			shifts[r] = estimator.SobolShift(seed, uint64(r), Dims)
		}
		ls := d.lsc[0]
		for _, l := range lanes {
			if l.start%qmcReplicates == 0 {
				t.Fatalf("lane [%d, +%d) starts on the replicate grid", l.start, l.n)
			}
			d.lk.drawPhase(ls, l.start, l.n)
			for k := 0; k < l.n; k++ {
				i := l.start + k
				estimator.SobolNormal(uint64(i/qmcReplicates), shifts[i%qmcReplicates], want[:])
				estimator.SobolPoint(uint64(i/qmcReplicates), shifts[i%qmcReplicates], u[:])
				for dim, w := range want {
					if got := ls.epsT[dim][k]; math.Float64bits(got) != math.Float64bits(w) {
						t.Fatalf("seed %d sample %d dim %d: drawPhase %v, SobolNormal %v", seed, i, dim, got, w)
					}
					switch {
					case u[dim] < 0.02425:
						lower++
					case u[dim] > 1-0.02425:
						upper++
					}
					if math.Abs(w) >= 1.25*math.Sqrt2 {
						expBranch++
					}
				}
			}
		}
		d.close()
	}
	if lower == 0 || upper == 0 || expBranch == 0 {
		t.Fatalf("%d lower-tail, %d upper-tail and %d exponential-branch draws; the fixture lost its teeth", lower, upper, expBranch)
	}
	t.Logf("%d lower-tail, %d upper-tail and %d exponential-branch draws", lower, upper, expBranch)
}

// TestLanePartialBitIdentity covers the coordinator shard path: a
// shard's sparse contributions must be exactly the nonzero rows of the
// scalar reference over its range, for every shardable rung, at shard
// boundaries that are not lane- or batch-aligned.
func TestLanePartialBitIdentity(t *testing.T) {
	sc := testScenario(t, 520e-12)
	ms := &MultiScenario{Base: sc.Base, Coeffs: sc.Coeffs, Space: sc.Space, Specs: []model.LineSpec{sc.Spec}, Target: sc.Target}
	for _, est := range []estimator.Kind{estimator.MC, estimator.ISLE, estimator.QMC} {
		o := YieldOptions{Samples: 2048, Seed: 5, Estimator: est, Workers: 3}
		var shifts [][]float64
		if est == estimator.ISLE {
			shift, err := FindShift(Dims, sc.Target, sc.Delay)
			if err != nil || shift == nil {
				t.Fatalf("no ISLE shift found (%v); the fixture lost its teeth", err)
			}
			shifts = [][]float64{shift}
		}
		ref := newScalarRef(ms, est, o.Seed, shifts)
		for _, shard := range []struct{ start, count int }{{0, 700}, {700, 1348}} {
			got, _, shifted, err := CollectPartialCtx(context.Background(), sc, o, shard.start, shard.count)
			if err != nil {
				t.Fatal(err)
			}
			if shifted != (shifts != nil) {
				t.Fatalf("%s: shard reports shifted=%v", est, shifted)
			}
			want := Partial{Start: shard.start, Count: shard.count}
			for i := shard.start; i < shard.start+shard.count; i++ {
				x, err := ref.row(i, 0)
				if err != nil {
					t.Fatal(err)
				}
				if x != 0 {
					want.FailIdx = append(want.FailIdx, i)
					if shifted {
						want.Weights = append(want.Weights, x)
					}
				}
			}
			if len(want.FailIdx) == 0 {
				t.Fatalf("%s shard [%d,%d): no failing sample; the fixture lost its teeth", est, shard.start, shard.start+shard.count)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s shard [%d,%d): lane partial diverged from DelayScratch:\n got %+v\nwant %+v",
					est, shard.start, shard.start+shard.count, got, want)
			}
		}
	}
}

// TestLaneValidationFallback forces the one per-sample branch the lane
// cannot precompute — perturbed widths thin enough to lose their copper
// core, at several samples and candidates — and checks that every path
// raises the error the scalar evaluator meets first: the one
// DelayScratch gives on the lowest thin sample and, within it, the
// lowest active candidate. Cases: a single candidate under mc and AIS,
// mixed segments, ISLE with a shift per candidate (each candidate's own
// draw, so its own width), QMC, a direct lane evaluation with inactive
// candidates, and a CollectPartialCtx shard that starts mid-lane. Over
// the cases, the lowest thin sample must once hold two candidates with
// different errors, and once come before the first thin sample of the
// lowest thin candidate, so both halves of the order are exercised.
func TestLaneValidationFallback(t *testing.T) {
	sc := testScenario(t, 480e-12)
	tc := sc.Base
	// Nominal widths just above the validity floor (2·barrier), with a
	// wide width sigma: a one-sided draw shrinks a line below the floor,
	// which the scalar path rejects per sample.
	thin := func(mult float64, layer tech.WireLayer, style wire.Style, length float64) wire.Segment {
		s := wire.NewSegmentOn(tc, layer, length, style)
		s.Spacing += s.Width - mult*tc.Barrier
		s.Width = mult * tc.Barrier
		return s
	}
	space := sc.Space
	space.WireWidthSigma = 0.3
	lone := *sc
	lone.Space = space
	lone.Spec.Segment = thin(2.5, tc.Global, wire.SWSS, sc.Spec.Segment.Length)
	// Bound to a copy of the technology with a thinner barrier: a
	// sample's perturbed segment lives on the perturbed base technology,
	// so its error names the base's barrier, not this one.
	own := *tc
	own.Barrier *= 0.9
	lone.Spec.Segment.Tech = &own
	mixed := sweepSpecs(thin(3.3, tc.Global, wire.SWSS, 5e-3))
	mixed[1].Segment = thin(2.6, tc.Intermediate, wire.Shielded, 3e-3)
	mixed[2].Segment = thin(2.62, tc.Global, wire.Staggered, 5e-3)
	mixed[3].Segment = thin(2.7, tc.Global, wire.SWSS, 4e-3)
	multi := func(shifts [][]float64) *MultiScenario {
		return &MultiScenario{Base: tc, Coeffs: sc.Coeffs, Space: space, Specs: mixed, Target: sc.Target, Shifts: shifts}
	}
	loneMulti := &MultiScenario{Base: tc, Coeffs: sc.Coeffs, Space: space, Specs: []model.LineSpec{lone.Spec}, Target: lone.Target}

	const samples = 512 // small enough that AIS skips adaptation
	candOrder, sampleOrder := false, false
	check := func(name string, ref *scalarRef, start, n int, active []bool, run func(workers int) error) error {
		t.Helper()
		fs := ref.fails(start, n, active)
		if len(fs) == 0 || fs[len(fs)-1].i == fs[0].i {
			t.Fatalf("%s: thin widths at %d samples; the fixture lost its teeth", name, len(fs))
		}
		want := fs[0]
		lowest := fs[0]
		for _, f := range fs {
			if f.i == want.i && f.err.Error() != want.err.Error() {
				candOrder = true
			}
			if f.c < lowest.c {
				lowest = f
			}
		}
		if lowest.i > want.i {
			sampleOrder = true
		}
		for _, workers := range []int{1, 4} {
			err := run(workers)
			if err == nil {
				t.Fatalf("%s workers=%d: the lane missed the validation failure", name, workers)
			}
			if err.Error() != want.err.Error() {
				t.Fatalf("%s workers=%d: lane error %q, want DelayScratch's at sample %d candidate %d: %q",
					name, workers, err, want.i, want.c, want.err)
			}
		}
		return want.err
	}
	estimate := func(ms *MultiScenario, o YieldOptions) func(int) error {
		return func(workers int) error {
			o.Workers = workers
			_, err := EstimateYieldsSharedCtx(context.Background(), ms, o)
			return err
		}
	}

	for _, est := range []estimator.Kind{estimator.MC, estimator.AIS} {
		o := YieldOptions{Samples: samples, Seed: 2, Estimator: est}
		check("single-"+string(est), newScalarRef(loneMulti, est, o.Seed, nil), 0, samples, allActive(1), estimate(loneMulti, o))
	}
	for _, est := range []estimator.Kind{estimator.MC, estimator.QMC} {
		o := YieldOptions{Samples: samples, Seed: 3, Estimator: est}
		check("mixed-"+string(est), newScalarRef(multi(nil), est, o.Seed, nil), 0, samples, allActive(4), estimate(multi(nil), o))
	}
	shifts := [][]float64{laneShift(-0.5), laneShift(0.9), nil, laneShift(1.4)}
	o := YieldOptions{Samples: samples, Seed: 4, Estimator: estimator.ISLE}
	check("mixed-isle", newScalarRef(multi(shifts), estimator.ISLE, o.Seed, shifts), 0, samples, allActive(4), estimate(multi(shifts), o))

	// A direct lane evaluation over a mid-lane range with candidates 0
	// and 2 inactive.
	active := []bool{false, true, false, true}
	ro := YieldOptions{Samples: samples, Seed: 5}.runOptions().withDefaults()
	check("lane-inactive", newScalarRef(multi(nil), estimator.MC, ro.Seed, nil), 37, 50, active, func(int) error {
		d, err := newDriver(context.Background(), multi(nil), ro, estimator.MC)
		if err != nil {
			t.Fatal(err)
		}
		defer d.close()
		return d.lk.eval(d.lsc[0], 37, 50, make([]float64, 50*len(mixed)), len(mixed), active)
	})

	// A shard starting past the run's first thin sample, off the lane
	// grid: its error is the first thin sample inside its own range.
	for _, est := range []estimator.Kind{estimator.MC, estimator.QMC} {
		o := YieldOptions{Samples: samples, Seed: 6, Estimator: est}
		ref := newScalarRef(loneMulti, est, o.Seed, nil)
		first := ref.fails(0, samples, allActive(1))[0]
		start := first.i + 1
		if start%laneSize == 0 {
			start++
		}
		shardErr := check("shard-"+string(est), ref, start, samples-start, allActive(1), func(workers int) error {
			o.Workers = workers
			_, _, _, err := CollectPartialCtx(context.Background(), &lone, o, start, samples-start)
			return err
		})
		if shardErr.Error() == first.err.Error() {
			t.Fatalf("shard-%s: the shard's error is the whole run's; the fixture lost its teeth", est)
		}
	}
	if !candOrder || !sampleOrder {
		t.Fatalf("no case where candidate order (%v) or sample order (%v) decides the error; the fixtures lost their teeth", candOrder, sampleOrder)
	}
}

// TestLaneChunk pins the lane scheduling policy: full lanes serial,
// shrunk-but-bounded lanes parallel, never exceeding the batch.
func TestLaneChunk(t *testing.T) {
	for _, c := range []struct {
		batch, workers, want int
	}{
		{256, 1, 64},  // serial: full lanes
		{256, 4, 64},  // 64 samples/worker: full lanes still fit
		{256, 8, 32},  // shrink so every worker gets a lane
		{256, 32, 16}, // floor at laneMin
		{8, 4, 8},     // tiny batch: laneMin floor, then capped at batch
		{1, 1, 1},
		{10, 64, 10}, // laneMin capped by the batch itself
	} {
		if got := laneChunk(c.batch, c.workers); got != c.want {
			t.Fatalf("laneChunk(%d, %d) = %d, want %d", c.batch, c.workers, got, c.want)
		}
	}
}

// TestLanePowMatchesMathPow holds the precompiled lane power to
// math.Pow bit for bit: every built-in technology's α plus 1, 1.5, 1.6
// and 2 across the whole clamped Vth-overdrive range (both clamp ends
// and one ulp either side), the 0.222 fringe exponent across the
// clamped thickness/ILD ratio, and the math.Pow fallback — exponents
// pow special-cases or the short form does not take, and operands
// outside its range. Every operand runs through powLane in lanes of
// length 1, 63 and 64, and the fallback operands are spread through
// each exponent's sweep, so every longer lane mixes short-form and
// fallback operands.
func TestLanePowMatchesMathPow(t *testing.T) {
	odd := []float64{0, math.Copysign(0, -1), -0.3, 5e-324, 0x1p-1022, powMin, math.Nextafter(powMin, 0),
		powMax, math.Nextafter(powMax, math.Inf(1)), 1e300, math.Inf(1), math.NaN(), 1}
	check := func(p lanePow, xs []float64) {
		t.Helper()
		// An odd operand after every 40th, so each lane of 63 or 64
		// holds both kinds.
		var all []float64
		for i, x := range xs {
			if i%40 == 0 {
				all = append(all, odd[i/40%len(odd)])
			}
			all = append(all, x)
		}
		want := make([]float64, len(all))
		for k, x := range all {
			want[k] = math.Pow(x, p.y)
		}
		out := make([]float64, laneSize)
		for _, width := range []int{1, 63, 64} {
			for lo := 0; lo < len(all); lo += width {
				x := all[lo:min(lo+width, len(all))]
				p.powLane(x, out)
				for k := range x {
					if math.Float64bits(out[k]) != math.Float64bits(want[lo+k]) {
						t.Fatalf("lane of %d: pow(%v, %v) = %v, math.Pow %v", width, x[k], p.y, out[k], want[lo+k])
					}
				}
			}
		}
	}
	sweep := func(p lanePow, lo, hi float64) {
		t.Helper()
		xs := []float64{lo, hi, math.Nextafter(lo, 0), math.Nextafter(lo, 1), math.Nextafter(hi, 0), math.Nextafter(hi, 2)}
		const steps = 20000
		for i := 0; i <= steps; i++ {
			xs = append(xs, lo+(hi-lo)*float64(i)/steps)
		}
		check(p, xs)
	}
	for _, tc := range tech.All() {
		// applyProg clamps Vth to [0.05, Vdd−0.05], so the overdrive
		// Vdd − Vth spans [Vdd − (Vdd−0.05), Vdd − 0.05].
		vthMax := tc.Vdd - 0.05
		lo, hi := tc.Vdd-vthMax, tc.Vdd-0.05
		for _, y := range []float64{tc.NMOS.Alpha, tc.PMOS.Alpha, 1, 1.5, 1.6, 2} {
			p := newLanePow(y)
			if runtime.GOARCH != "s390x" && !p.short {
				t.Fatalf("%s: exponent %v does not take the short form", tc.Name, y)
			}
			sweep(p, lo, hi)
		}
		// The fringe term raises th/ild with both factors clamped to
		// [0.6, 1.4].
		for _, l := range []tech.WireLayer{tc.Global, tc.Intermediate} {
			sweep(newLanePow(0.222), l.Thickness*0.6/(l.ILD*1.4), l.Thickness*1.4/(l.ILD*0.6))
		}
	}
	// The fallback: exponents pow answers before its decomposition or
	// whose integer part exceeds two.
	for _, y := range []float64{0.5, 2.6, 3, -1.3, 0, math.Inf(1), math.NaN()} {
		p := newLanePow(y)
		if p.short {
			t.Fatalf("exponent %v takes the short form", y)
		}
		sweep(p, 0.05, 1.2)
	}
	check(newLanePow(1.35), odd)
}
