package pool

import (
	"context"
	"errors"
	"testing"

	"repro/internal/faultinject"
)

// TestForEachInjectedItemError: an injected per-item error is selected
// under the same lowest-index rule as an ordinary fn error.
func TestForEachInjectedItemError(t *testing.T) {
	defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"pool.item": {Kind: faultinject.Error, Times: 1},
	}})()
	err := ForEachCtx(context.Background(), 4, 64, func(i int) error { return nil })
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("got %v, want the injected error", err)
	}
}

// TestForEachInjectedPanicRecovered: an injected panic fires inside the
// worker's recover scope and surfaces as a *PanicError, not a process
// crash.
func TestForEachInjectedPanicRecovered(t *testing.T) {
	defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"pool.item": {Kind: faultinject.Panic, Times: 1},
	}})()
	err := ForEachCtx(context.Background(), 4, 64, func(i int) error { return nil })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("got %v, want a *PanicError", err)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("recovered panic lost its stack")
	}
}

// TestForEachInjectedDelayStillCompletes: injected per-item delays slow
// the sweep but never change its result.
func TestForEachInjectedDelayStillCompletes(t *testing.T) {
	defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"pool.item": {Kind: faultinject.Delay, Delay: 0, Every: 2},
	}})()
	ran := make([]bool, 32)
	if err := ForEachCtx(context.Background(), 4, len(ran), func(i int) error {
		ran[i] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("item %d skipped", i)
		}
	}
}
