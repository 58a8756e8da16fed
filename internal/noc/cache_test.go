package noc

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/tech"
	"repro/internal/wire"
)

// countingModel wraps a LinkModel and counts Design invocations per
// requested length, to observe what the cache actually forwards.
type countingModel struct {
	LinkModel
	mu    sync.Mutex
	calls map[float64]int
}

func newCountingModel(lm LinkModel) *countingModel {
	return &countingModel{LinkModel: lm, calls: map[float64]int{}}
}

func (m *countingModel) Design(length float64) (LinkDesign, error) {
	m.mu.Lock()
	m.calls[length]++
	m.mu.Unlock()
	return m.LinkModel.Design(length)
}

func (m *countingModel) totalCalls() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, c := range m.calls {
		n += c
	}
	return n
}

func TestDesignCacheRejectsBadLengths(t *testing.T) {
	c := NewDesignCache(proposed90(t))
	for _, bad := range []float64{0, -1e-3, -1e-9, math.NaN()} {
		if _, err := c.Design(bad); err == nil {
			t.Errorf("length %g accepted", bad)
		}
	}
	if c.Len() != 0 {
		t.Fatalf("invalid lengths were cached: %d entries", c.Len())
	}
}

func TestDesignCacheSubQuantumNotAliased(t *testing.T) {
	// 0.4 µm rounds to bucket 0; the old implementation clamped it to
	// the 1 µm bucket. It must now be designed at its exact length
	// and stay out of the cache.
	base := newCountingModel(proposed90(t))
	c := NewDesignCache(base)
	d, err := c.Design(0.4e-6)
	if err != nil {
		t.Fatal(err)
	}
	if d.Length != 0.4e-6 {
		t.Fatalf("sub-quantum length aliased: designed %g, want %g", d.Length, 0.4e-6)
	}
	if c.Len() != 0 {
		t.Fatalf("sub-quantum design cached (%d entries)", c.Len())
	}
	if got := base.calls[0.4e-6]; got != 1 {
		t.Fatalf("underlying model saw %d calls for the exact length", got)
	}
}

func TestDesignCacheQuantizesAndMemoizes(t *testing.T) {
	base := newCountingModel(proposed90(t))
	c := NewDesignCache(base)
	// Lengths within the same 1 µm bucket share one design.
	a, err := c.Design(100.2e-6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Design(99.8e-6)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("same-bucket lengths designed differently")
	}
	if q := math.Round(a.Length / lengthQuantum); q != 100 {
		t.Fatalf("bucket center %g (q=%g), want the 100 µm bucket", a.Length, q)
	}
	if base.totalCalls() != 1 || c.Len() != 1 {
		t.Fatalf("underlying calls %d, cache size %d; want 1, 1", base.totalCalls(), c.Len())
	}
}

func TestDesignCacheNoDoubleWrap(t *testing.T) {
	c := NewDesignCache(proposed90(t))
	if c2 := NewDesignCache(c); c2 != c {
		t.Fatal("wrapping a DesignCache stacked a second cache")
	}
}

func TestDesignCacheConcurrentSingleComputation(t *testing.T) {
	base := newCountingModel(proposed90(t))
	c := NewDesignCache(base)
	lengths := []float64{0.3e-3, 0.5e-3, 0.7e-3, 0.9e-3, 1.1e-3}

	const goroutines = 16
	results := make([][]LinkDesign, goroutines)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			out := make([]LinkDesign, len(lengths))
			for i, l := range lengths {
				d, err := c.Design(l)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				out[i] = d
			}
			results[g] = out
		}(g)
	}
	wg.Wait()

	for g := 1; g < goroutines; g++ {
		if !reflect.DeepEqual(results[0], results[g]) {
			t.Fatalf("goroutine %d saw different designs", g)
		}
	}
	// Every distinct length designed exactly once, despite 16
	// concurrent requesters.
	if got := base.totalCalls(); got != len(lengths) {
		t.Fatalf("underlying model called %d times for %d lengths", got, len(lengths))
	}
	if c.Len() != len(lengths) {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), len(lengths))
	}
}

// flakyModel fails the first `failures` Design calls with the given
// error, then delegates; it reproduces a model whose computation died
// under a cancelled context.
type flakyModel struct {
	LinkModel
	mu       sync.Mutex
	failures int
	failErr  error
	calls    int
}

func (m *flakyModel) Design(length float64) (LinkDesign, error) {
	m.mu.Lock()
	m.calls++
	fail := m.calls <= m.failures
	m.mu.Unlock()
	if fail {
		return LinkDesign{}, m.failErr
	}
	return m.LinkModel.Design(length)
}

func (m *flakyModel) callCount() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calls
}

func TestDesignCacheDoesNotMemoizeCancellation(t *testing.T) {
	// First lookup dies with a wrapped context error; the entry must
	// stay undecided so the next lookup retries and succeeds. Before
	// the fix the per-entry sync.Once memoized the cancellation
	// forever, poisoning the length for every later caller.
	for _, transient := range []error{
		context.Canceled,
		context.DeadlineExceeded,
		fmt.Errorf("noc: design aborted: %w", context.Canceled),
	} {
		base := &flakyModel{LinkModel: proposed90(t), failures: 1, failErr: transient}
		c := NewDesignCache(base)
		if _, err := c.Design(1e-3); !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("first lookup: got %v, want the transient error", err)
		}
		if c.Len() != 0 {
			t.Fatalf("transient error was cached (%d entries)", c.Len())
		}
		d, err := c.Design(1e-3)
		if err != nil {
			t.Fatalf("retry after transient error: %v", err)
		}
		if d.Length == 0 {
			t.Fatal("retry returned a zero design")
		}
		if got := base.callCount(); got != 2 {
			t.Fatalf("underlying model called %d times, want 2 (fail + retry)", got)
		}
		// Third lookup is a pure cache hit.
		if _, err := c.Design(1e-3); err != nil {
			t.Fatal(err)
		}
		if got := base.callCount(); got != 2 {
			t.Fatalf("cached design recomputed (%d calls)", got)
		}
	}
}

func TestDesignCacheStillMemoizesPermanentErrors(t *testing.T) {
	// Infeasible lengths are a property of the model, not the caller's
	// context: they stay memoized so the merge loop doesn't re-derive
	// the same failure thousands of times.
	lm := proposed90(t)
	base := &flakyModel{LinkModel: lm, failures: 1 << 30, failErr: fmt.Errorf("noc: infeasible")}
	c := NewDesignCache(base)
	for i := 0; i < 3; i++ {
		if _, err := c.Design(1e-3); err == nil {
			t.Fatal("permanent error not propagated")
		}
	}
	if got := base.callCount(); got != 1 {
		t.Fatalf("permanent error recomputed (%d calls), want memoized once", got)
	}
}

func TestDesignCacheCtxPreCancelled(t *testing.T) {
	base := newCountingModel(proposed90(t))
	c := NewDesignCache(base)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.DesignCtx(ctx, 1e-3); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := base.totalCalls(); got != 0 {
		t.Fatalf("cancelled lookup reached the model (%d calls)", got)
	}
	if c.Len() != 0 {
		t.Fatalf("cancelled lookup left %d cache entries", c.Len())
	}
	// The same cache, with a live context, designs normally.
	if _, err := c.DesignCtx(context.Background(), 1e-3); err != nil {
		t.Fatalf("cache poisoned by the cancelled lookup: %v", err)
	}
}

func TestSynthesizeCtxCancelled(t *testing.T) {
	lm := proposed90(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SynthesizeCtx(ctx, DVOPD(), lm, SynthOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// The model must remain fully usable after the aborted run.
	ref, err := SynthesizeCtx(context.Background(), DVOPD(), lm, SynthOptions{})
	if err != nil {
		t.Fatalf("synthesis after cancelled run: %v", err)
	}
	if ref.Check() != nil {
		t.Fatal("post-cancel synthesis produced an invalid network")
	}
}

// cancellingModel cancels a context after a fixed number of designs,
// simulating a deadline that expires mid-synthesis.
type cancellingModel struct {
	LinkModel
	cancel  context.CancelFunc
	after   int32
	designs atomic.Int32
}

func (m *cancellingModel) Design(length float64) (LinkDesign, error) {
	if m.designs.Add(1) == m.after {
		m.cancel()
	}
	return m.LinkModel.Design(length)
}

func TestSynthesizeCtxCancelMidRun(t *testing.T) {
	lm := proposed90(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cm := &cancellingModel{LinkModel: lm, cancel: cancel, after: 3}
	_, err := SynthesizeCtx(ctx, DVOPD(), cm, SynthOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// A fresh run over the same underlying model under a live context
	// must match an undisturbed reference bit for bit: nothing from
	// the aborted run may leak through shared state.
	ref, err := SynthesizeCtx(context.Background(), DVOPD(), lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	again, err := SynthesizeCtx(context.Background(), DVOPD(), lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Evaluate() != again.Evaluate() {
		t.Fatal("post-cancel synthesis diverged from the reference")
	}
}

func TestSynthesizeCtxLiveMatchesNoCtx(t *testing.T) {
	lm := proposed90(t)
	ref, err := SynthesizeCtx(context.Background(), DVOPD(), lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got, err := SynthesizeCtx(ctx, DVOPD(), lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Routes, got.Routes) {
		t.Fatal("live-context routes differ from the no-context path")
	}
	if ref.Evaluate() != got.Evaluate() {
		t.Fatal("live-context metrics differ from the no-context path")
	}
}

func TestSynthesizeWorkersMatchSerial(t *testing.T) {
	lm := proposed90(t)
	spec := DVOPD()
	serial, err := SynthesizeCtx(context.Background(), spec, lm, SynthOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2, runtime.GOMAXPROCS(0) + 3} {
		par, err := SynthesizeCtx(context.Background(), spec, lm, SynthOptions{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if !reflect.DeepEqual(serial.Routes, par.Routes) {
			t.Fatalf("workers=%d: routes differ from serial", workers)
		}
		ms, mp := serial.Evaluate(), par.Evaluate()
		if ms != mp {
			t.Fatalf("workers=%d: metrics differ: %+v vs %+v", workers, ms, mp)
		}
	}
}

func TestSynthesizeConcurrentRunsSharedModel(t *testing.T) {
	// Many goroutines synthesizing against one shared LinkModel — the
	// fan-out callers could not do before the cache was made safe.
	lm := proposed90(t)
	ref, err := SynthesizeCtx(context.Background(), DVOPD(), lm, SynthOptions{})
	if err != nil {
		t.Fatal(err)
	}
	refMetrics := ref.Evaluate()

	const runs = 4
	var wg sync.WaitGroup
	var failures atomic.Int32
	wg.Add(runs)
	for r := 0; r < runs; r++ {
		go func() {
			defer wg.Done()
			net, err := SynthesizeCtx(context.Background(), DVOPD(), lm, SynthOptions{})
			if err != nil {
				t.Errorf("concurrent synthesis: %v", err)
				failures.Add(1)
				return
			}
			if m := net.Evaluate(); m != refMetrics {
				t.Errorf("concurrent synthesis diverged: %+v vs %+v", m, refMetrics)
				failures.Add(1)
			}
		}()
	}
	wg.Wait()
	if failures.Load() > 0 {
		t.FailNow()
	}
}

// BenchmarkSynthesizeWorkers measures the merge loop's scaling: the
// serial baseline against the pooled evaluation on all cores. Run
// with -cpu or compare the sub-benchmarks directly.
func BenchmarkSynthesizeWorkers(b *testing.B) {
	tc := tech.MustLookup("90nm")
	spec := VPROC()
	for _, bench := range []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"parallel", 0},
	} {
		b.Run(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh model per iteration keeps the design cache
				// cold, so the benchmark exercises real design work,
				// not just candidate scoring over cache hits.
				lm, err := NewProposedModel(tc, spec.DataWidth, wire.SWSS)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := SynthesizeCtx(context.Background(), spec, lm, SynthOptions{Workers: bench.workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
