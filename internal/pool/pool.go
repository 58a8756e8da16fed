// Package pool provides a minimal bounded worker pool for fanning out
// independent CPU-bound evaluations — an errgroup in miniature, with
// deterministic error selection (the lowest-index failure wins) so a
// parallel sweep reports the same error its serial counterpart would.
//
// The synthesis and sizing hot paths evaluate many independently
// costed candidates per step; this package is how they spread that
// work across cores without each call site reinventing goroutine
// bookkeeping. Both entry points, ForEachCtx and ForEachWorkerCtx,
// cancel cooperatively: workers stop claiming new indices once the
// context is done, so a caller can bound or interrupt a sweep without
// poisoning the determinism contract of uncancelled runs.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/faultinject"
	"repro/internal/obs"
)

// Hot-path observability (see internal/obs): items processed, fan-out
// runs, and the live worker level. Updates are lock-free atomics and
// do not affect results.
var (
	metItems         = obs.NewCounter("pool.items")
	metRuns          = obs.NewCounter("pool.runs")
	metWorkers       = obs.NewCounter("pool.workers_spawned")
	metActiveWorkers = obs.NewGauge("pool.workers_active")
	metPanics        = obs.NewCounter("pool.panics_recovered")
)

// Workers resolves a requested worker count for n items: requested
// values below 1 mean "all cores" (runtime.GOMAXPROCS(0)); the result
// is capped at n and never below 1.
func Workers(requested, n int) int {
	w := requested
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// PanicError is the error ForEachCtx reports when fn(i) panicked: the
// panic is recovered in the worker (so sibling goroutines drain
// instead of the process dying mid-flight) and attributed to its item
// index, selected under the same lowest-index rule as ordinary errors.
type PanicError struct {
	// Index is the item whose fn panicked.
	Index int
	// Value is the recovered panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic in item %d: %v", e.Index, e.Value)
}

// callWorker invokes fn(i, worker), converting a panic into a
// *PanicError so one bad item cannot crash the process with the index
// lost. The "pool.item" fault point fires inside the recover scope, so
// injected panics exercise exactly the recovery path a panicking fn
// would.
func callWorker(fn func(i, worker int) error, i, worker int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			metPanics.Inc()
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	if err := faultinject.Hit("pool.item"); err != nil {
		return err
	}
	return fn(i, worker)
}

// ForEachCtx runs fn(i) for every i in [0, n) on at most `workers`
// goroutines (workers < 1 means all cores) and returns the error of
// the lowest failing index, matching what a serial loop would report.
// A panicking fn is recovered and reported as a *PanicError under the
// same lowest-index rule. Once any call fails, unclaimed indices are
// skipped; calls already in flight run to completion. fn must be safe
// for concurrent invocation. With one worker (or n < 2) the loop runs
// inline with no goroutines at all.
//
// Cancellation is cooperative and checked before each index claim:
// when ctx is done before every index completed, ForEachCtx returns
// ctx.Err() after in-flight calls drain. A run the context never
// interrupts behaves exactly as under context.Background().
func ForEachCtx(ctx context.Context, workers, n int, fn func(i int) error) error {
	return ForEachWorkerCtx(ctx, workers, n, func(i, _ int) error { return fn(i) })
}

// ForEachWorkerCtx is ForEachCtx for callers that keep per-worker
// scratch state: fn additionally receives the claiming worker's id, a
// stable integer in [0, Workers(workers, n)). Exactly one goroutine
// holds a given id for the duration of one call, so fn may freely
// reuse scratch buffers indexed by worker id without locking — the
// zero-steady-state-allocation hot paths (the Monte Carlo sampling
// kernel) hoist their per-sample buffers this way. Scratch indexed by
// worker id may also be carried across consecutive ForEachWorkerCtx
// calls: the WaitGroup join of the previous call happens-before the
// goroutines of the next, so no synchronization is needed.
//
// Everything else matches ForEachCtx: lowest-index error selection,
// panic recovery into *PanicError, cooperative cancellation, and an
// inline (goroutine-free) loop with worker id 0 when only one worker
// runs.
func ForEachWorkerCtx(ctx context.Context, workers, n int, fn func(i, worker int) error) error {
	if n <= 0 {
		return nil
	}
	metRuns.Inc()
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := callWorker(fn, i, 0); err != nil {
				return err
			}
			metItems.Inc()
		}
		return nil
	}

	var (
		next      atomic.Int64
		lowest    atomic.Int64 // lowest failed index so far; n while none
		cancelled atomic.Bool
		wg        sync.WaitGroup
	)
	lowest.Store(int64(n))
	errs := make([]error, n)
	wg.Add(w)
	metWorkers.Add(int64(w))
	for g := 0; g < w; g++ {
		go func(worker int) {
			metActiveWorkers.Add(1)
			defer func() {
				metActiveWorkers.Add(-1)
				wg.Done()
			}()
			for {
				// Indices are claimed in ascending order. One above a
				// recorded failure cannot change the result and is
				// skipped; one below it must still run, even when another
				// goroutine's failure landed between its claim and this
				// check.
				i := int(next.Add(1)) - 1
				if i >= n || int64(i) > lowest.Load() {
					return
				}
				if ctx.Err() != nil {
					cancelled.Store(true)
					return
				}
				if err := callWorker(fn, i, worker); err != nil {
					errs[i] = err
					for cur := lowest.Load(); int64(i) < cur; cur = lowest.Load() {
						if lowest.CompareAndSwap(cur, int64(i)) {
							break
						}
					}
				} else {
					metItems.Inc()
				}
			}
		}(g)
	}
	wg.Wait()
	// Absent cancellation every index below the lowest recorded
	// failure ran to completion: the first non-nil entry is exactly the
	// error the serial loop would have returned. A cancelled run may
	// have skipped arbitrary indices, so its result is ctx.Err() unless
	// an fn error was recorded first — either way the caller must
	// discard the partial output.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	if cancelled.Load() {
		return ctx.Err()
	}
	return nil
}
