package noc

import (
	"errors"
	"testing"

	"repro/internal/faultinject"
)

// TestCacheComputePermanentFaultMemoized: an injected error is treated
// like any model failure — memoized, never recomputed.
func TestCacheComputePermanentFaultMemoized(t *testing.T) {
	base := newCountingModel(proposed90(t))
	c := NewDesignCache(base)
	defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"noc.cache.compute": {Kind: faultinject.Error, Times: 1},
	}})()

	if _, err := c.Design(1e-3); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("got %v, want the injected error", err)
	}
	if got := faultinject.Hits("noc.cache.compute"); got != 1 {
		t.Fatalf("permanent fault retried (%d hits)", got)
	}
	// Memoized: the second lookup returns the same error without
	// recomputing, exactly like a permanently infeasible length.
	if _, err := c.Design(1e-3); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("memoized error lost: %v", err)
	}
	if got := faultinject.Hits("noc.cache.compute"); got != 1 {
		t.Fatalf("memoized error recomputed (%d hits)", got)
	}
	if got := base.totalCalls(); got != 0 {
		t.Fatalf("model reached despite fault (%d calls)", got)
	}
}

// TestCacheComputeInjectedCancellationNotMemoized: a Cancel-kind fault
// looks like a caller's dying context and must leave the entry
// undecided, same as the real cancellation path.
func TestCacheComputeInjectedCancellationNotMemoized(t *testing.T) {
	base := newCountingModel(proposed90(t))
	c := NewDesignCache(base)
	defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"noc.cache.compute": {Kind: faultinject.Cancel, Times: 1},
	}})()

	if _, err := c.Design(1e-3); err == nil {
		t.Fatal("injected cancellation not surfaced")
	}
	if c.Len() != 0 {
		t.Fatalf("injected cancellation memoized (%d entries)", c.Len())
	}
	if _, err := c.Design(1e-3); err != nil {
		t.Fatalf("entry poisoned by injected cancellation: %v", err)
	}
}
