package variation

import (
	"context"
	"errors"
	"testing"

	"repro/internal/faultinject"
)

// TestRunBatchFaultSurfacesPromptly: a fault at the sampling driver's
// first batch boundary aborts the estimation with the injected error
// before a single sample is drawn, instead of burning the budget.
func TestRunBatchFaultSurfacesPromptly(t *testing.T) {
	defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"variation.batch": {Kind: faultinject.Error, Times: 1},
	}})()
	sc := testScenario(t, 480e-12)
	before := metSamples.Value()
	_, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 1 << 20})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("got %v, want the injected error", err)
	}
	if drawn := metSamples.Value() - before; drawn != 0 {
		t.Fatalf("%d samples ran after the first-batch fault", drawn)
	}
}

// TestRunLaterBatchFaultDiscardsPartial: a fault firing between
// batches (After skips the first boundary) aborts the run with the
// error and discards the partial accumulation — exactly one batch of
// Batch samples has run when the second boundary fires.
func TestRunLaterBatchFaultDiscardsPartial(t *testing.T) {
	defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"variation.batch": {Kind: faultinject.Error, After: 1, Times: 1},
	}})()
	sc := testScenario(t, 480e-12)
	before := metSamples.Value()
	_, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 4 * Batch, Workers: 1})
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("got %v, want the injected error", err)
	}
	if drawn := metSamples.Value() - before; drawn != Batch {
		t.Fatalf("%d samples ran, want exactly the first batch (%d)", drawn, Batch)
	}
}
