package surface

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/estimator"
	"repro/internal/tech"
	"repro/internal/variation"
	"repro/internal/wire"
)

func testKey(t *testing.T) Key {
	t.Helper()
	tc := tech.MustLookup("65nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	return Key{
		TechHash:    TechHash(tc),
		Geom:        GeometryOf(seg),
		InputSlew:   100e-12,
		PowerWeight: 0.5,
		Space:       variation.DefaultSpace(),
	}
}

var dk = DesignKey{Size: 8, N: 10}

func TestTechHashDistinguishesDescriptors(t *testing.T) {
	a := tech.MustLookup("65nm")
	b := tech.MustLookup("45nm")
	if TechHash(a) == TechHash(b) {
		t.Fatal("distinct technologies hash equal")
	}
	// A private field-level edit moves the hash: the edited descriptor
	// can never alias the original's surface.
	c := a.Clone()
	c.Vdd += 0.01
	if TechHash(a) != TechHash(a.Clone()) {
		t.Fatal("identical descriptors hash differently")
	}
	if TechHash(a) == TechHash(c) {
		t.Fatal("edited descriptor reuses the original's hash")
	}
}

func TestLookupExactHit(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	s := Sample{Target: 400e-12, FailProb: 0.02, StdErr: 0.002, Samples: 4096, Estimator: estimator.MC}
	c.Record(k, dk, s)
	got, ok := c.Lookup(k, dk, 400e-12, Tolerance{})
	if !ok {
		t.Fatal("exact-target lookup missed")
	}
	if got.FailProb != s.FailProb || got.StdErr != s.StdErr || got.Samples != s.Samples || got.Interpolated {
		t.Fatalf("exact hit mangled: %+v", got)
	}
}

// TestLookupExactHitBudgetSpent pins the budget-spent rule: an
// exact-target recall whose stored run already spent the query's
// sample budget is served verbatim even when its band is wider than
// the tolerance — rerunning could only reproduce the same estimate —
// while interpolated answers are never admitted that way.
func TestLookupExactHitBudgetSpent(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	// StdErr 0.01 fails both the default tolerance (AbsErr 0.005,
	// RelErr 0.05 × 0.05 = 0.0025) and the explicit one below.
	c.Record(k, dk, Sample{Target: 400e-12, FailProb: 0.05, StdErr: 0.01, Samples: 512, Estimator: estimator.MC})
	c.Record(k, dk, Sample{Target: 420e-12, FailProb: 0.01, StdErr: 0.001, Samples: 512, Estimator: estimator.MC})

	if _, ok := c.Lookup(k, dk, 400e-12, Tolerance{}); ok {
		t.Fatal("loose exact hit served without a sample budget")
	}
	if _, ok := c.Lookup(k, dk, 400e-12, Tolerance{MinSamples: 513}); ok {
		t.Fatal("loose exact hit served below the sample budget")
	}
	got, ok := c.Lookup(k, dk, 400e-12, Tolerance{AbsErr: 0.002, MinSamples: 512})
	if !ok {
		t.Fatal("budget-spent exact hit missed")
	}
	if got.FailProb != 0.05 || got.StdErr != 0.01 || got.Samples != 512 || got.Interpolated {
		t.Fatalf("budget-spent exact hit mangled: %+v", got)
	}
	// The bracketing gap (0.04) dwarfs any tolerance here, so the
	// interpolated midpoint must still miss: MinSamples never admits
	// an interpolation.
	if _, ok := c.Lookup(k, dk, 410e-12, Tolerance{AbsErr: 0.002, MinSamples: 1}); ok {
		t.Fatal("interpolated answer admitted via the sample budget")
	}
}

func TestLookupInterpolatesWithConservativeBand(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	c.Record(k, dk, Sample{Target: 400e-12, FailProb: 0.030, StdErr: 0.002, Samples: 4096, Estimator: estimator.MC})
	c.Record(k, dk, Sample{Target: 420e-12, FailProb: 0.010, StdErr: 0.001, Samples: 2048, Estimator: estimator.MC})
	got, ok := c.Lookup(k, dk, 410e-12, Tolerance{AbsErr: 0.05})
	if !ok {
		t.Fatal("bracketed lookup missed")
	}
	if !got.Interpolated {
		t.Fatal("bracketed answer not marked interpolated")
	}
	if want := 0.020; math.Abs(got.FailProb-want) > 1e-12 {
		t.Fatalf("midpoint interpolation %g, want %g", got.FailProb, want)
	}
	// Conservative band: max stderr + the full bracketing gap.
	if want := 0.002 + 0.020; math.Abs(got.StdErr-want) > 1e-12 {
		t.Fatalf("conservative stderr %g, want %g", got.StdErr, want)
	}
	if got.Samples != 2048 {
		t.Fatalf("interpolated sample count %d, want the smaller endpoint 2048", got.Samples)
	}
}

func TestLookupRefusesExtrapolation(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	c.Record(k, dk, Sample{Target: 400e-12, FailProb: 0.02, StdErr: 0.002, Samples: 4096, Estimator: estimator.MC})
	c.Record(k, dk, Sample{Target: 420e-12, FailProb: 0.01, StdErr: 0.002, Samples: 4096, Estimator: estimator.MC})
	for _, target := range []float64{399e-12, 421e-12} {
		if _, ok := c.Lookup(k, dk, target, Tolerance{AbsErr: 1}); ok {
			t.Errorf("served an extrapolated answer at %g", target)
		}
	}
}

func TestLookupHonorsTolerance(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	// A wide bracketing gap makes the conservative band large.
	c.Record(k, dk, Sample{Target: 400e-12, FailProb: 0.40, StdErr: 0.004, Samples: 4096, Estimator: estimator.MC})
	c.Record(k, dk, Sample{Target: 500e-12, FailProb: 0.01, StdErr: 0.004, Samples: 4096, Estimator: estimator.MC})
	if _, ok := c.Lookup(k, dk, 450e-12, Tolerance{AbsErr: 0.01}); ok {
		t.Fatal("served an answer whose band exceeds AbsErr")
	}
	if got, ok := c.Lookup(k, dk, 450e-12, Tolerance{AbsErr: 0.5}); !ok || got.StdErr < 0.39 {
		t.Fatalf("loose tolerance refused (ok=%v, %+v)", ok, got)
	}
	// RelErr accepts when the band is small relative to the estimate.
	if _, ok := c.Lookup(k, dk, 450e-12, Tolerance{RelErr: 0.1}); ok {
		t.Fatal("RelErr 0.1 accepted a band twice the estimate")
	}
	if _, ok := c.Lookup(k, dk, 450e-12, Tolerance{RelErr: 3}); !ok {
		t.Fatal("RelErr 3 refused a band within tolerance")
	}
	// The zero tolerance falls back to the cache defaults, which this
	// wide gap cannot meet.
	if _, ok := c.Lookup(k, dk, 450e-12, Tolerance{}); ok {
		t.Fatal("default tolerance accepted a 0.4-wide band")
	}
}

func TestLookupMissesColdKeysAndCurves(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	if _, ok := c.Lookup(k, dk, 400e-12, Tolerance{}); ok {
		t.Fatal("cold cache hit")
	}
	c.Record(k, dk, Sample{Target: 400e-12, FailProb: 0.02, StdErr: 0.002, Samples: 4096, Estimator: estimator.MC})
	if _, ok := c.Lookup(k, DesignKey{Size: 12, N: 8}, 400e-12, Tolerance{}); ok {
		t.Fatal("unknown curve hit")
	}
	other := k
	other.TechHash++
	if _, ok := c.Lookup(other, dk, 400e-12, Tolerance{}); ok {
		t.Fatal("different tech hash hit")
	}
}

func TestRecordKeepsTighterEstimate(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	c.Record(k, dk, Sample{Target: 400e-12, FailProb: 0.02, StdErr: 0.001, Samples: 65536, Estimator: estimator.MC})
	// A cheaper probe at the same target must not clobber the
	// expensive run.
	c.Record(k, dk, Sample{Target: 400e-12, FailProb: 0.05, StdErr: 0.02, Samples: 128, Estimator: estimator.MC})
	got, ok := c.Lookup(k, dk, 400e-12, Tolerance{AbsErr: 1})
	if !ok || got.Samples != 65536 || got.FailProb != 0.02 {
		t.Fatalf("cheap probe clobbered the stored run: %+v", got)
	}
	// An equally-sized rerun replaces (fresher data wins on ties).
	c.Record(k, dk, Sample{Target: 400e-12, FailProb: 0.021, StdErr: 0.001, Samples: 65536, Estimator: estimator.MC})
	if got, _ := c.Lookup(k, dk, 400e-12, Tolerance{AbsErr: 1}); got.FailProb != 0.021 {
		t.Fatalf("equal-size rerun did not replace: %+v", got)
	}
}

func TestRecordRejectsDegenerateSamples(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	for _, s := range []Sample{
		{Target: 0, FailProb: 0.1, StdErr: 0.01, Samples: 100},
		{Target: -1e-12, FailProb: 0.1, StdErr: 0.01, Samples: 100},
		{Target: math.NaN(), FailProb: 0.1, StdErr: 0.01, Samples: 100},
		{Target: 1e-12, FailProb: math.NaN(), StdErr: 0.01, Samples: 100},
		{Target: 1e-12, FailProb: 0.1, StdErr: math.Inf(1), Samples: 100},
		{Target: 1e-12, FailProb: 0.1, StdErr: 0.01, Samples: 0},
	} {
		c.Record(k, dk, s)
	}
	if st := c.Stats(); st.Points != 0 || st.Records != 0 {
		t.Fatalf("degenerate samples were recorded: %+v", st)
	}
}

func TestCurveCapReplacesNearest(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	for i := 0; i < maxPointsPerCurve; i++ {
		c.Record(k, dk, Sample{Target: float64(i+1) * 100e-12, FailProb: 0.01, StdErr: 0.001, Samples: 1024, Estimator: estimator.MC})
	}
	c.Record(k, dk, Sample{Target: 310e-12, FailProb: 0.5, StdErr: 0.001, Samples: 1024, Estimator: estimator.MC})
	if st := c.Stats(); st.Points != maxPointsPerCurve {
		t.Fatalf("cap not enforced: %+v", st)
	}
	// The 300 ps point (nearest to 310 ps) was replaced.
	if got, ok := c.Lookup(k, dk, 310e-12, Tolerance{AbsErr: 1}); !ok || got.FailProb != 0.5 {
		t.Fatalf("replacement point not stored: ok=%v %+v", ok, got)
	}
	if got, ok := c.Lookup(k, dk, 300e-12, Tolerance{AbsErr: 1}); !ok || !got.Interpolated {
		t.Fatalf("300 ps no longer bracketed by 200/310 ps: ok=%v %+v", ok, got)
	}
}

func TestEntryCapDropsNewKeys(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	s := Sample{Target: 400e-12, FailProb: 0.02, StdErr: 0.002, Samples: 4096, Estimator: estimator.MC}
	for i := 0; i < maxEntries; i++ {
		key := k
		key.TechHash += uint64(i)
		c.Record(key, dk, s)
	}
	other := k
	other.TechHash += maxEntries
	c.Record(other, dk, s)
	if st := c.Stats(); st.Entries != maxEntries {
		t.Fatalf("entry cap not enforced: %+v", st)
	}
	if _, ok := c.Lookup(k, dk, 400e-12, Tolerance{}); !ok {
		t.Fatal("existing entry lost to a capped insert")
	}
	if _, ok := c.Lookup(other, dk, 400e-12, Tolerance{}); ok {
		t.Fatal("insert beyond the entry cap was stored")
	}
}

func TestDesignMemo(t *testing.T) {
	c := New(Options{})
	k := testKey(t)
	if _, ok := c.DesignFor(k); ok {
		t.Fatal("cold design memo hit")
	}
	c.RecordDesign(k, Design{Size: 8, N: 10, Delay: 350e-12})
	d, ok := c.DesignFor(k)
	if !ok || d.Size != 8 || d.N != 10 || d.Delay != 350e-12 {
		t.Fatalf("design memo mangled: ok=%v %+v", ok, d)
	}
}

// TestConcurrentRecordLookup drives records, lookups, design memos, and
// stats snapshots from many goroutines; run under -race in CI, it is
// the cache's data-race acceptance test. Each goroutine records more
// targets than a curve holds on its hot curve and more fresh classes
// than the cache holds between them, so both caps are hit
// concurrently.
func TestConcurrentRecordLookup(t *testing.T) {
	const goroutines, perG = 8, 600 // 4800 fresh classes overflow maxEntries
	c := New(Options{})
	k := testKey(t)
	hot := func(g int) (Key, DesignKey) {
		key := k
		key.TechHash += uint64(g % 4)
		return key, DesignKey{Size: float64(4 + g%3*4), N: 10}
	}
	// The four hot classes exist before the fresh ones can fill the
	// cache, so their eight curves are never dropped.
	for g := 0; g < goroutines; g++ {
		key, d := hot(g)
		c.Record(key, d, Sample{Target: 300e-12, FailProb: 0.02, StdErr: 0.002, Samples: 1024, Estimator: estimator.MC})
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key, d := hot(g)
			for i := 0; i < perG; i++ {
				target := float64(300+i%(2*maxPointsPerCurve)) * 1e-12
				s := Sample{Target: target, FailProb: 0.02, StdErr: 0.002, Samples: 1024 + i, Estimator: estimator.MC}
				c.Record(key, d, s)
				fresh := k
				fresh.TechHash += uint64(1000 + g*perG + i)
				c.Record(fresh, d, s)
				c.Lookup(key, d, target, Tolerance{AbsErr: 0.01})
				c.Lookup(fresh, d, target, Tolerance{AbsErr: 0.01})
				c.RecordDesign(key, Design{Size: d.Size, N: d.N, Delay: target})
				c.DesignFor(key)
				if i%100 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	wg.Wait()
	// Full cache: the 4 hot classes hold 8 full curves, and each of the
	// other classes one point.
	st := c.Stats()
	if st.Entries != maxEntries || st.Points != 8*maxPointsPerCurve+maxEntries-4 {
		t.Fatalf("caps not both reached: %+v", st)
	}
}

// TestLookupLatency pins the headline property: a warm lookup is a map
// probe plus a binary search, far under the 10 µs warm-answer budget.
// The bound is generous (2 µs/op averaged over 10k lookups) so CI
// noise cannot flake it while a regression to an O(curve) scan or a
// lock convoy still trips.
func TestLookupLatency(t *testing.T) {
	if raceEnabled {
		t.Skip("latency bound is meaningless under the race detector's instrumentation")
	}
	c := New(Options{})
	k := testKey(t)
	for i := 0; i < 64; i++ {
		c.Record(k, dk, Sample{Target: float64(300+i) * 1e-12, FailProb: 0.02, StdErr: 0.002, Samples: 4096, Estimator: estimator.MC})
	}
	const iters = 10000
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, ok := c.Lookup(k, dk, float64(300+i%64)*1e-12, Tolerance{AbsErr: 0.01}); !ok {
			t.Fatal("warm lookup missed")
		}
	}
	if per := time.Since(start) / iters; per > 2*time.Microsecond {
		t.Fatalf("warm lookup took %v/op, want <2µs", per)
	}
}
