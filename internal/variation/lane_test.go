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

// withScalarKernel runs f with the lane kernel disabled, restoring the
// default afterwards. The hook is package-internal and only flipped
// between estimations, never during one.
func withScalarKernel(f func()) {
	laneKernelDisabled = true
	defer func() { laneKernelDisabled = false }()
	f()
}

// TestLaneBitIdenticalToScalar is the tentpole acceptance matrix: for
// every sampling rung (mc, isle, qmc, ais), both samplers, shared and
// per-candidate segments, and workers 1/4/GOMAXPROCS, the lane kernel
// returns Estimates bit-identical to the scalar per-sample kernel. No
// tolerance anywhere: the lane preserves the scalar path's expression
// association and the caller's fold order, so the comparison is ==.
func TestLaneBitIdenticalToScalar(t *testing.T) {
	tc := tech.MustLookup("90nm")
	coeffs := model.MustDefault("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)

	shared := sweepSpecs(seg)
	mixed := sweepSpecs(seg)
	segB := wire.NewSegmentOn(tc, tc.Intermediate, 3e-3, wire.Shielded)
	mixed[1].Segment = segB
	mixed[3].Segment = segB
	mixed[3].N = 9

	for _, geom := range []struct {
		name  string
		specs []model.LineSpec
	}{{"shared-seg", shared}, {"mixed-seg", mixed}} {
		for _, est := range []estimator.Kind{estimator.MC, estimator.ISLE, estimator.QMC, estimator.AIS} {
			for _, sampler := range []Sampler{SamplerBoxMuller, SamplerZiggurat} {
				if (est == estimator.QMC || est == estimator.AIS) && sampler == SamplerZiggurat {
					continue // Sobol points and AIS proposal draws ignore the sampler
				}
				o := YieldOptions{
					Samples: 2048, Seed: 11, RelErr: 0.15,
					Estimator: est, Sampler: sampler,
				}
				ms := &MultiScenario{Base: tc, Coeffs: coeffs, Space: DefaultSpace(), Specs: geom.specs, Target: 500e-12}
				var want []Estimate
				withScalarKernel(func() {
					var err error
					want, err = EstimateYieldsShared(ms, o)
					if err != nil {
						t.Fatal(err)
					}
				})
				for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
					o.Workers = workers
					got, err := EstimateYieldsShared(ms, o)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s/%s/%s workers=%d: lane diverged from scalar:\n got %+v\nwant %+v",
							geom.name, est, resolveSampler(sampler), workers, got, want)
					}
				}
			}
		}
	}
}

// TestLanePartialBitIdentity covers the coordinator shard path: a
// shard's sparse contributions from the lane kernel must equal the
// scalar kernel's exactly, for every shardable rung, at shard
// boundaries that are not lane- or batch-aligned.
func TestLanePartialBitIdentity(t *testing.T) {
	sc := testScenario(t, 520e-12)
	for _, est := range []estimator.Kind{estimator.MC, estimator.ISLE, estimator.QMC} {
		o := YieldOptions{Samples: 2048, Seed: 5, Estimator: est, Workers: 3}
		for _, shard := range []struct{ start, count int }{{0, 700}, {700, 1348}} {
			var want Partial
			withScalarKernel(func() {
				var err error
				want, _, _, err = CollectPartialCtx(context.Background(), sc, o, shard.start, shard.count)
				if err != nil {
					t.Fatal(err)
				}
			})
			got, _, _, err := CollectPartialCtx(context.Background(), sc, o, shard.start, shard.count)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s shard [%d,%d): lane partial diverged from scalar:\n got %+v\nwant %+v",
					est, shard.start, shard.start+shard.count, got, want)
			}
		}
	}
}

// TestLaneLegacySamplerMatchesHistoricalKernel pins that the pinned
// legacy sampler really is the historical sequence: the lane kernel
// under SamplerBoxMuller reproduces the pre-lane per-sample kernel
// (runOracle over LinkScenario.Delay) bit-exactly — the same fixture
// TestSharedKernelBitIdenticalToLegacy uses.
func TestLaneLegacySamplerMatchesHistoricalKernel(t *testing.T) {
	sc := testScenario(t, 480e-12)
	o := YieldOptions{Samples: 2048, Seed: 3, Sampler: SamplerBoxMuller}
	want := legacyLinkYield(t, sc, o)
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		o.Workers = workers
		got, err := EstimateLinkYield(sc, o)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("workers=%d: lane+box-muller diverged from historical kernel:\n got %+v\nwant %+v", workers, got, want)
		}
	}
}

// TestLaneValidationFallback forces the one per-sample branch the lane
// cannot precompute — a perturbed width thin enough to lose its copper
// core — and checks the lane surfaces the identical error the scalar
// kernel does: for AIS, the error LinkScenario.DelayScratch returns on
// the first failing draw.
func TestLaneValidationFallback(t *testing.T) {
	sc := testScenario(t, 480e-12)
	// Nominal width just above the validity floor (2·barrier), with a
	// wide width sigma: a one-sided draw shrinks the line below the
	// floor, which the scalar path rejects per sample.
	sc.Spec.Segment.Width = 2.5 * sc.Base.Barrier
	sc.Spec.Segment.Spacing += sc.Spec.Segment.Width
	sc.Space.WireWidthSigma = 0.3

	for _, est := range []estimator.Kind{estimator.MC, estimator.AIS} {
		o := YieldOptions{Samples: 512, Seed: 2, Estimator: est}
		var wantErr error
		withScalarKernel(func() {
			_, err := EstimateLinkYield(sc, o)
			if err == nil {
				t.Fatalf("%s: scalar kernel accepted a sub-barrier width; fixture is broken", est)
			}
			wantErr = err
		})
		if est == estimator.AIS {
			if err := firstAISDelayError(sc, o); err == nil || err.Error() != wantErr.Error() {
				t.Fatalf("scalar AIS error %q != DelayScratch error %v", wantErr, err)
			}
		}
		for _, workers := range []int{1, 4} {
			o.Workers = workers
			_, err := EstimateLinkYield(sc, o)
			if err == nil {
				t.Fatalf("%s workers=%d: lane kernel missed the validation failure", est, workers)
			}
			if err.Error() != wantErr.Error() {
				t.Fatalf("%s workers=%d: lane error %q != scalar error %q", est, workers, err, wantErr)
			}
		}
	}
}

// firstAISDelayError draws o's samples from the standard proposal in
// index order, as an AIS run too small to adapt does, and returns the
// first error LinkScenario.DelayScratch reports (nil if none does).
func firstAISDelayError(sc *LinkScenario, o YieldOptions) error {
	ro := o.runOptions().withDefaults()
	prop := estimator.StandardProposal()
	var st Stream
	var s Scratch
	eps := make([]float64, Dims)
	z := make([]float64, Dims)
	for i := 0; i < ro.Samples; i++ {
		st.Reset(ro.Seed, uint64(i))
		u := st.Float64()
		st.NormsInto(eps)
		prop.SampleInto(u, eps, z)
		if _, err := sc.DelayScratch(&s, z); err != nil {
			return err
		}
	}
	return nil
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
// outside its range.
func TestLanePowMatchesMathPow(t *testing.T) {
	check := func(p lanePow, x float64) {
		t.Helper()
		if got, want := p.pow(x), math.Pow(x, p.y); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("pow(%v, %v) = %v, math.Pow %v", x, p.y, got, want)
		}
	}
	sweep := func(p lanePow, lo, hi float64) {
		t.Helper()
		for _, x := range []float64{lo, hi, math.Nextafter(lo, 0), math.Nextafter(lo, 1), math.Nextafter(hi, 0), math.Nextafter(hi, 2)} {
			check(p, x)
		}
		const steps = 20000
		for i := 0; i <= steps; i++ {
			check(p, lo+(hi-lo)*float64(i)/steps)
		}
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
	// whose integer part exceeds two, and operands outside the short
	// form's range.
	for _, y := range []float64{0.5, 2.6, 3, -1.3, 0, math.Inf(1), math.NaN()} {
		p := newLanePow(y)
		if p.short {
			t.Fatalf("exponent %v takes the short form", y)
		}
		sweep(p, 0.05, 1.2)
	}
	p := newLanePow(1.35)
	for _, x := range []float64{0, math.Copysign(0, -1), -0.3, 5e-324, 0x1p-1022, powMin, math.Nextafter(powMin, 0),
		powMax, math.Nextafter(powMax, math.Inf(1)), 1e300, math.Inf(1), math.NaN(), 1} {
		check(p, x)
	}
}
