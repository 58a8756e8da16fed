package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkers(t *testing.T) {
	cases := []struct {
		requested, n, want int
	}{
		{0, 100, runtime.GOMAXPROCS(0)},
		{-3, 100, runtime.GOMAXPROCS(0)},
		{4, 100, 4},
		{8, 3, 3},
		{1, 10, 1},
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.n); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.n, got, c.want)
		}
	}
}

func TestForEachVisitsEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7} {
		const n = 1000
		var hits [n]atomic.Int32
		if err := ForEachCtx(context.Background(), workers, n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEachCtx(context.Background(), 4, 0, func(int) error { return fmt.Errorf("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachLowestIndexErrorWins(t *testing.T) {
	// Indices 3 and 7 both fail; the serial-equivalent error is 3's.
	for _, workers := range []int{1, 4} {
		err := ForEachCtx(context.Background(), workers, 10, func(i int) error {
			if i == 3 || i == 7 {
				return fmt.Errorf("fail-%d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail-3" {
			t.Fatalf("workers=%d: got %v, want fail-3", workers, err)
		}
	}
}

// TestForEachLowestIndexErrorUnderContention repeats a parallel run in
// which every item fails, so each run races the failures of the higher
// items against the claim of item 0. Item 0's error must win every
// time: an index claimed before a higher one failed still runs.
func TestForEachLowestIndexErrorUnderContention(t *testing.T) {
	errs := []error{errors.New("0"), errors.New("1"), errors.New("2"), errors.New("3")}
	fail := func(i, _ int) error { return errs[i] }
	runs := 100000
	if testing.Short() {
		runs = 10000
	}
	for r := 0; r < runs; r++ {
		if err := ForEachWorkerCtx(context.Background(), len(errs), len(errs), fail); err != errs[0] {
			t.Fatalf("run %d: got error %v, want item 0's", r, err)
		}
	}
}

func TestForEachStopsClaimingAfterFailure(t *testing.T) {
	// With a single worker the loop must stop at the first failure,
	// exactly like a serial loop.
	ran := 0
	err := ForEachCtx(context.Background(), 1, 100, func(i int) error {
		ran++
		if i == 5 {
			return fmt.Errorf("boom")
		}
		return nil
	})
	if err == nil || ran != 6 {
		t.Fatalf("ran %d items (err %v), want 6", ran, err)
	}
}

func TestForEachRecoversPanicWithIndex(t *testing.T) {
	// A panicking item must not crash the process; it must surface as
	// the deterministic lowest-index error with the index attributed,
	// under every worker count (including the inline serial path).
	for _, workers := range []int{1, 4, 0} {
		err := ForEachCtx(context.Background(), workers, 10, func(i int) error {
			if i == 3 || i == 7 {
				panic(fmt.Sprintf("kaboom-%d", i))
			}
			return nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: got %v (%T), want *PanicError", workers, err, err)
		}
		if pe.Index != 3 {
			t.Fatalf("workers=%d: panic attributed to item %d, want 3", workers, pe.Index)
		}
		if want := "panic in item 3: kaboom-3"; err.Error() != want {
			t.Fatalf("workers=%d: error %q, want %q", workers, err.Error(), want)
		}
		if !strings.Contains(string(pe.Stack), "pool_test") {
			t.Fatalf("workers=%d: stack trace missing the panic site", workers)
		}
	}
}

func TestForEachPanicLosesToLowerError(t *testing.T) {
	// An ordinary error at a lower index beats a panic at a higher
	// one — the same serial-equivalence rule as error vs. error.
	err := ForEachCtx(context.Background(), 4, 10, func(i int) error {
		switch i {
		case 2:
			return fmt.Errorf("plain-2")
		case 8:
			panic("late panic")
		}
		return nil
	})
	if err == nil || err.Error() != "plain-2" {
		t.Fatalf("got %v, want plain-2", err)
	}
}

func TestForEachCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ForEachCtx(ctx, workers, 100, func(i int) error {
			ran.Add(1)
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: got %v, want context.Canceled", workers, err)
		}
		if workers == 1 && ran.Load() != 0 {
			t.Fatalf("serial path ran %d items under a dead context", ran.Load())
		}
	}
}

func TestForEachCtxCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	const n = 10000
	err := ForEachCtx(ctx, 4, n, func(i int) error {
		if ran.Add(1) == 16 {
			cancel()
		}
		time.Sleep(50 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if got := ran.Load(); got >= n {
		t.Fatalf("cancellation never stopped the sweep (%d items ran)", got)
	}
}

func TestForEachCtxCompletedRunIdenticalToForEach(t *testing.T) {
	// A live context that is never cancelled must not change anything:
	// every index visited exactly once, nil error, as under
	// context.Background().
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 500
	var hits [n]atomic.Int32
	if err := ForEachCtx(ctx, 3, n, func(i int) error {
		hits[i].Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Fatalf("index %d visited %d times", i, got)
		}
	}
}

func TestForEachWorkerIDsInRange(t *testing.T) {
	// Every item must see a worker id in [0, Workers(workers, n)) and
	// be visited exactly once, for serial, bounded, and all-cores runs.
	for _, workers := range []int{1, 3, 0} {
		const n = 500
		bound := Workers(workers, n)
		var visits [n]atomic.Int32
		if err := ForEachWorkerCtx(context.Background(), workers, n, func(i, worker int) error {
			if worker < 0 || worker >= bound {
				return fmt.Errorf("item %d ran on worker %d, want [0,%d)", i, worker, bound)
			}
			visits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

// TestForEachWorkerScratchExclusive pins the property the worker id
// exists for: each id is held by exactly one goroutine at a time, so
// plain (non-atomic) writes into per-worker scratch are race-free.
// Under -race this test fails if two goroutines ever share an id.
func TestForEachWorkerScratchExclusive(t *testing.T) {
	const n, workers = 2000, 4
	scratch := make([]int, Workers(workers, n))
	if err := ForEachWorkerCtx(context.Background(), workers, n, func(i, worker int) error {
		scratch[worker]++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range scratch {
		total += c
	}
	if total != n {
		t.Fatalf("per-worker counters sum to %d, want %d", total, n)
	}
}

func TestForEachWorkerSerialUsesWorkerZero(t *testing.T) {
	if err := ForEachWorkerCtx(context.Background(), 1, 50, func(i, worker int) error {
		if worker != 0 {
			return fmt.Errorf("serial path handed out worker id %d", worker)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

func TestForEachWorkerCtxCancelAndError(t *testing.T) {
	// The worker-id variant keeps ForEachCtx's contracts: a dead
	// context surfaces as context.Canceled, and the lowest-index error
	// wins over a higher one.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := ForEachWorkerCtx(ctx, 4, 100, func(i, worker int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	err := ForEachWorkerCtx(context.Background(), 4, 10, func(i, worker int) error {
		if i == 2 || i == 8 {
			return fmt.Errorf("fail-%d", i)
		}
		return nil
	})
	if err == nil || err.Error() != "fail-2" {
		t.Fatalf("got %v, want fail-2", err)
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	if err := ForEachCtx(context.Background(), workers, 200, func(i int) error {
		c := cur.Add(1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		cur.Add(-1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent calls, bound is %d", p, workers)
	}
}
