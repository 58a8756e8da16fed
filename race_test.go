package predint

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestDesignLinkConcurrent hammers the facade from many goroutines
// with a mix of technologies, styles, and objectives. Run under
// `go test -race`; it pins the per-model design caches as safe for
// concurrent use, and that concurrent callers get the same answers as
// serial ones.
func TestDesignLinkConcurrent(t *testing.T) {
	reqs := []LinkRequest{
		{Tech: "90nm", LengthMM: 5},
		{Tech: "90nm", LengthMM: 5, DelayOptimal: true},
		{Tech: "90nm", LengthMM: 8, Style: Staggered},
		{Tech: "65nm", LengthMM: 3, PowerWeight: Float(0.7)},
		{Tech: "65nm", LengthMM: 3, ActivityFactor: Float(0.05)},
		{Tech: "45nm", LengthMM: 10, Style: Shielded, DelayOptimal: true},
		{Tech: "32nm", LengthMM: 2, Bits: Int(64)},
	}
	want := make([]LinkResult, len(reqs))
	for i, req := range reqs {
		res, err := DesignLink(req)
		if err != nil {
			t.Fatalf("serial reference %d: %v", i, err)
		}
		want[i] = res
	}

	const goroutines = 12
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			// Stagger the starting request so goroutines collide on
			// different cache entries at different times.
			for k := 0; k < 3*len(reqs); k++ {
				i := (g + k) % len(reqs)
				res, err := DesignLink(reqs[i])
				if err != nil {
					t.Errorf("goroutine %d req %d: %v", g, i, err)
					return
				}
				if res != want[i] {
					t.Errorf("goroutine %d req %d: concurrent result diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSynthesizeNoCConcurrent runs full NoC syntheses in parallel —
// each run internally fans out its merge loop too, so this stacks
// both levels of concurrency on the shared caches.
func TestSynthesizeNoCConcurrent(t *testing.T) {
	ref, err := SynthesizeNoC(NoCRequest{Case: "DVOPD", Tech: "90nm"})
	if err != nil {
		t.Fatal(err)
	}

	const runs = 4
	var wg sync.WaitGroup
	results := make([]NoCResult, runs)
	errs := make([]error, runs)
	wg.Add(runs)
	for r := 0; r < runs; r++ {
		go func(r int) {
			defer wg.Done()
			results[r], errs[r] = SynthesizeNoC(NoCRequest{Case: "DVOPD", Tech: "90nm"})
		}(r)
	}
	wg.Wait()
	for r := 0; r < runs; r++ {
		if errs[r] != nil {
			t.Fatalf("run %d: %v", r, errs[r])
		}
		if results[r].Metrics != ref.Metrics {
			t.Fatalf("run %d metrics diverged: %+v vs %+v", r, results[r].Metrics, ref.Metrics)
		}
		if results[r].Links != ref.Links || results[r].Routers != ref.Routers {
			t.Fatalf("run %d topology diverged", r)
		}
	}
}

// TestGoldenCrosstalkCalibrationConcurrent calls the golden engine,
// the coupled-line crosstalk study and Liberty calibration from many
// goroutines at once. Run under `go test -race`, it checks the shared
// characterized-library cache and the calibration path through the
// facade; every concurrent answer must equal the serial one bit for
// bit.
func TestGoldenCrosstalkCalibrationConcurrent(t *testing.T) {
	// The design TestGoldenLinkDelayAgreesWithModel checks.
	des, err := DesignLink(LinkRequest{Tech: "90nm", LengthMM: 5, PowerWeight: Float(0.3), LibrarySizesOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	golden := func() (float64, error) {
		return GoldenLinkDelay("90nm", des.RepeaterSize, des.Repeaters, 5, SWSS, DefaultInputSlewPS)
	}
	xtalk := []CrosstalkRequest{
		{Tech: "90nm", LengthMM: 1, Aggressors: "opposite"},
		{Tech: "90nm", LengthMM: 1, Aggressors: "quiet"},
	}
	var lib bytes.Buffer
	if err := ExportLibrary("90nm", &lib); err != nil {
		t.Fatal(err)
	}
	calibrate := func() (*Coefficients, error) { return CalibrateFromLibrary(bytes.NewReader(lib.Bytes())) }

	wantGolden, err := golden()
	if err != nil {
		t.Fatal(err)
	}
	wantX := make([]CrosstalkResult, len(xtalk))
	for i, req := range xtalk {
		if wantX[i], err = Crosstalk(req); err != nil {
			t.Fatal(err)
		}
	}
	wantCoeffs, err := calibrate()
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			// Stagger the starting entry so different entries collide.
			for k := 0; k < 2+len(xtalk); k++ {
				switch i := (g + k) % (2 + len(xtalk)); i {
				case 0:
					if d, err := golden(); err != nil || d != wantGolden {
						t.Errorf("goroutine %d: golden delay %x (%v), serial %x", g, d, err, wantGolden)
					}
				case 1:
					if c, err := calibrate(); err != nil || !reflect.DeepEqual(c, wantCoeffs) {
						t.Errorf("goroutine %d: calibration diverged (%v)", g, err)
					}
				default:
					req := xtalk[i-2]
					if x, err := Crosstalk(req); err != nil || x != wantX[i-2] {
						t.Errorf("goroutine %d: crosstalk %q = %x (%v), serial %x", g, req.Aggressors, x, err, wantX[i-2])
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLinkYieldConcurrent stacks concurrent facade calls on top of the
// engine's own worker fan-out: every goroutine runs a parallel Monte
// Carlo estimation against the shared coefficient cache and must get
// the serial reference bit for bit.
func TestLinkYieldConcurrent(t *testing.T) {
	reqs := []YieldRequest{
		{Tech: "90nm", LengthMM: 5, Samples: Int(1024), Seed: 1},
		{Tech: "90nm", LengthMM: 5, Samples: Int(1024), Seed: 2, TargetPS: Float(470)},
		{Tech: "90nm", LengthMM: 5, Samples: Int(1024), Seed: 1, TargetPS: Float(520), Estimator: "isle"},
		{Tech: "65nm", LengthMM: 3, Samples: Int(1024), Seed: 3, Workers: 4},
	}
	want := make([]YieldResult, len(reqs))
	for i, req := range reqs {
		res, err := uncached.LinkYieldCtx(context.Background(), req)
		if err != nil {
			t.Fatalf("serial reference %d: %v", i, err)
		}
		want[i] = res
	}

	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 2*len(reqs); k++ {
				i := (g + k) % len(reqs)
				res, err := uncached.LinkYieldCtx(context.Background(), reqs[i])
				if err != nil {
					t.Errorf("goroutine %d req %d: %v", g, i, err)
					return
				}
				if res != want[i] {
					t.Errorf("goroutine %d req %d: concurrent result diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestLinkYieldCtxCancellation covers the facade-level cancellation
// contract end to end: a pre-cancelled context is refused, a mid-run
// cancel of a huge-budget estimation returns promptly with ctx.Err(),
// and — the cache-unpoisoning half — the same request afterwards still
// reproduces the reference bit for bit (no package-level cache may
// have memoized the cancellation).
func TestLinkYieldCtxCancellation(t *testing.T) {
	req := YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(1024), Seed: 1}
	ref, err := uncached.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := uncached.LinkYieldCtx(dead, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}

	big := req
	big.Samples = Int(100_000_000)
	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel2()
	}()
	start := time.Now()
	_, err = uncached.LinkYieldCtx(ctx, big)
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("mid-run cancel took %v, want prompt return", elapsed)
	}
	cancel2()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-run cancel: got %v, want context.Canceled", err)
	}

	after, err := uncached.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatalf("post-cancel run failed (poisoned cache?): %v", err)
	}
	if after != ref {
		t.Fatalf("post-cancel run diverged from reference:\n%+v\nvs\n%+v", after, ref)
	}
}

// TestLinkYieldCtxLiveMatchesNoCtx pins that a live context is free:
// the facade result under a never-expiring deadline is bit-identical
// to the same call under context.Background().
func TestLinkYieldCtxLiveMatchesNoCtx(t *testing.T) {
	req := YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(1024), Seed: 7, Workers: 4}
	ref, err := uncached.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	got, err := uncached.LinkYieldCtx(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got != ref {
		t.Fatalf("live-ctx facade diverged: %+v vs %+v", got, ref)
	}
}

// TestSynthesizeNoCCtxCancellation pins the synthesis facade: a
// pre-cancelled context is refused up front, a cancel racing a live
// sweep either completes identically or surfaces ctx.Err() — and in
// both worlds the next context-free synthesis reproduces the reference
// exactly (no design-cache poisoning).
func TestSynthesizeNoCCtxCancellation(t *testing.T) {
	req := NoCRequest{Case: "DVOPD", Tech: "90nm"}
	ref, err := SynthesizeNoC(req)
	if err != nil {
		t.Fatal(err)
	}

	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SynthesizeNoCCtx(dead, req); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled context: got %v, want context.Canceled", err)
	}

	ctx, cancel2 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel2()
	}()
	res, err := SynthesizeNoCCtx(ctx, req)
	cancel2()
	switch {
	case err == nil:
		// The sweep beat the cancel; it must then be the reference.
		if res.Metrics != ref.Metrics {
			t.Fatalf("race-completed run diverged: %+v vs %+v", res.Metrics, ref.Metrics)
		}
	case errors.Is(err, context.Canceled):
		// Expected mid-sweep abort.
	default:
		t.Fatalf("mid-sweep cancel: got %v, want context.Canceled or success", err)
	}

	after, err := SynthesizeNoC(req)
	if err != nil {
		t.Fatalf("post-cancel synthesis failed (poisoned cache?): %v", err)
	}
	if after.Metrics != ref.Metrics || after.Links != ref.Links || after.Routers != ref.Routers {
		t.Fatalf("post-cancel synthesis diverged from reference")
	}
}

// TestLinkYieldCtxCancelConcurrent hammers cancellation and live runs
// together: half the goroutines get cancelled mid-estimation, half run
// to completion against the shared caches; the completed runs must all
// be bit-identical to the serial reference. Run under `go test -race`.
func TestLinkYieldCtxCancelConcurrent(t *testing.T) {
	req := YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(2048), Seed: 9}
	ref, err := uncached.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				res, err := uncached.LinkYieldCtx(context.Background(), req)
				if err != nil {
					t.Errorf("live goroutine %d: %v", g, err)
					return
				}
				if res != ref {
					t.Errorf("live goroutine %d diverged", g)
				}
				return
			}
			big := req
			big.Samples = Int(50_000_000)
			ctx, cancel := context.WithTimeout(context.Background(), time.Duration(g)*time.Millisecond)
			defer cancel()
			if _, err := uncached.LinkYieldCtx(ctx, big); err != nil && !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled goroutine %d: unexpected error %v", g, err)
			}
		}(g)
	}
	wg.Wait()

	// The shared caches must still hand every later caller the
	// reference answer.
	after, err := uncached.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if after != ref {
		t.Fatalf("post-hammer run diverged from reference")
	}
}
