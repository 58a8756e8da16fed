package variation

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/estimator"
)

// The estimator tests work on an analytically known problem: a sample
// fails iff z[0] > threshold, so the exact failure probability is the
// normal tail 1 − Φ(threshold).

func normalTail(threshold float64) float64 {
	return math.Erfc(threshold/math.Sqrt2) / 2
}

func tailTrial(threshold float64) trial {
	return func(i int, z []float64) (bool, error) {
		return z[0] > threshold, nil
	}
}

func TestPlainMCMatchesExact(t *testing.T) {
	exact := normalTail(1) // ≈ 0.1587, cheap to resolve
	est, err := runOracle(YieldOptions{Samples: 100000, Seed: 5}, 3, nil, tailTrial(1))
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples != 100000 {
		t.Fatalf("ran %d samples, want all", est.Samples)
	}
	if d := math.Abs(est.FailProb - exact); d > 4*est.StdErr {
		t.Fatalf("plain MC %g vs exact %g: off by %g > 4σ (%g)", est.FailProb, exact, d, est.StdErr)
	}
	// Plain MC's variance-reduction ratio is ≈1 by construction.
	if est.VarianceReduction < 0.9 || est.VarianceReduction > 1.1 {
		t.Fatalf("plain MC variance ratio %g, want ≈1", est.VarianceReduction)
	}
	if est.Shifted {
		t.Fatal("plain MC reported as shifted")
	}
}

func TestImportanceSamplingTail(t *testing.T) {
	const threshold = 3 // exact tail ≈ 1.35e-3
	exact := normalTail(threshold)
	shift := []float64{threshold, 0, 0}
	est, err := runOracle(YieldOptions{Samples: 4096, Seed: 5}, 3, shift, tailTrial(threshold))
	if err != nil {
		t.Fatal(err)
	}
	if !est.Shifted {
		t.Fatal("shifted run not flagged")
	}
	if d := math.Abs(est.FailProb - exact); d > 4*est.StdErr {
		t.Fatalf("IS %g vs exact %g: off by %g > 4σ (%g)", est.FailProb, exact, d, est.StdErr)
	}
	// At p ≈ 1.35e-3 a 4096-sample plain MC estimator has stderr
	// √(p(1−p)/n) ≈ 5.7e-4; the shifted estimator must beat it
	// decisively.
	plainSE := math.Sqrt(exact * (1 - exact) / float64(est.Samples))
	if est.StdErr >= plainSE/2 {
		t.Fatalf("IS stderr %g not measurably below plain-MC stderr %g", est.StdErr, plainSE)
	}
	if est.VarianceReduction < 4 {
		t.Fatalf("variance reduction %g, want ≥4 on a 3σ tail", est.VarianceReduction)
	}
}

// TestEstimatorWorkerDeterminism pins the bit-identical contract: the
// full Estimate must match across worker counts, including when the
// stopping rule ends the run early.
func TestEstimatorWorkerDeterminism(t *testing.T) {
	for _, c := range []struct {
		opts  YieldOptions
		shift []float64
	}{
		{YieldOptions{Samples: 20000, Seed: 11}, nil},
		{YieldOptions{Samples: 20000, Seed: 11, RelErr: 0.05}, nil},
		{YieldOptions{Samples: 8192, Seed: 11}, []float64{2, 0, 0, 0}},
	} {
		var ref Estimate
		for wi, workers := range []int{1, 8} {
			o := c.opts
			o.Workers = workers
			est, err := runOracle(o, 4, c.shift, tailTrial(2))
			if err != nil {
				t.Fatal(err)
			}
			if wi == 0 {
				ref = est
				continue
			}
			if est != ref {
				t.Fatalf("workers=%d diverged from serial: %+v vs %+v (opts %+v, shift %v)", workers, est, ref, c.opts, c.shift)
			}
		}
	}
}

func TestStoppingRule(t *testing.T) {
	// p ≈ 0.5 resolves to 5% relative error almost immediately; the
	// run must stop well before the budget.
	est, err := runOracle(YieldOptions{Samples: 200000, RelErr: 0.05, Seed: 3}, 2, nil, tailTrial(0))
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples >= 200000 {
		t.Fatalf("stopping rule never fired (%d samples)", est.Samples)
	}
	if est.Samples < 512 {
		t.Fatalf("stopped below the 512-sample floor: %d", est.Samples)
	}
	if est.StdErr/est.FailProb > 0.05*1.01 {
		t.Fatalf("stopped at rel err %g, target 0.05", est.StdErr/est.FailProb)
	}
}

// TestStoppingRuleZeroFailureEscape pins the fix for the silent
// budget exhaustion: a trial that never fails used to run the entire
// Samples budget because the relative rule requires mean > 0. With the
// rule-of-three escape the run stops once 3/n <= RelErr (here n = 60,
// below the 512-sample floor, so the floor governs).
func TestStoppingRuleZeroFailureEscape(t *testing.T) {
	never := func(i int, z []float64) (bool, error) { return false, nil }
	est, err := runOracle(YieldOptions{Samples: 200000, RelErr: 0.05, Seed: 3}, 2, nil, never)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples >= 200000 {
		t.Fatalf("zero-failure run burned the whole budget (%d samples)", est.Samples)
	}
	if est.Samples < 512 {
		t.Fatalf("stopped below the 512-sample floor: %d", est.Samples)
	}
	if est.FailProb != 0 || est.Yield != 1 {
		t.Fatalf("zero-failure estimate corrupted: fail %g yield %g", est.FailProb, est.Yield)
	}
	// The bound the escape certifies: p < 3/n at 95%.
	if bound := 3 / float64(est.Samples); bound > 0.05 {
		t.Fatalf("stopped before the rule-of-three bound reached RelErr (bound %g)", bound)
	}
}

// TestStoppingRuleZeroFailureKeepsSamplingUnderTightTolerance pins the
// other half of the contract: the escape only fires once 3/n actually
// reaches the tolerance, so a tight RelErr keeps drawing samples past
// the floor instead of bailing at it.
func TestStoppingRuleZeroFailureKeepsSamplingUnderTightTolerance(t *testing.T) {
	never := func(i int, z []float64) (bool, error) { return false, nil }
	const tol = 1e-3 // needs n >= 3000
	est, err := runOracle(YieldOptions{Samples: 8192, RelErr: tol, Seed: 3}, 2, nil, never)
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples < 3000 {
		t.Fatalf("escaped at %d samples, before 3/n <= %g", est.Samples, tol)
	}
	if est.Samples >= 8192 {
		t.Fatalf("tight tolerance should still stop before the budget (ran %d)", est.Samples)
	}
}

// TestStoppingRuleWithFailuresUnchanged pins that the historical
// relative rule still governs runs that do observe failures: the
// mean > 0 branch is bit-identical to the pre-escape estimator.
func TestStoppingRuleWithFailuresUnchanged(t *testing.T) {
	withEscape, err := runOracle(YieldOptions{Samples: 200000, RelErr: 0.05, Seed: 3}, 2, nil, tailTrial(0))
	if err != nil {
		t.Fatal(err)
	}
	if withEscape.StdErr/withEscape.FailProb > 0.05*1.01 {
		t.Fatalf("relative rule drifted: rel err %g", withEscape.StdErr/withEscape.FailProb)
	}
}

func TestAbsErrStopping(t *testing.T) {
	// p ≈ 0.5: stderr ≈ 0.5/√n, so AbsErr 0.02 needs n ≈ 625.
	est, err := runOracle(YieldOptions{Samples: 200000, AbsErr: 0.02, Seed: 3}, 2, nil, tailTrial(0))
	if err != nil {
		t.Fatal(err)
	}
	if est.Samples >= 200000 {
		t.Fatalf("absolute rule never fired (%d samples)", est.Samples)
	}
	if est.StdErr > 0.02*1.01 {
		t.Fatalf("stopped at stderr %g, target 0.02", est.StdErr)
	}
}

// TestRunCtxCancellation: the sampling driver checks ctx at batch
// boundaries. A dead context draws no sample, and a deadline on a huge
// budget returns promptly instead of burning it.
func TestRunCtxCancellation(t *testing.T) {
	sc := testScenario(t, 480e-12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := metSamples.Value()
	_, err := EstimateLinkYieldCtx(ctx, sc, YieldOptions{Samples: 100000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if drawn := metSamples.Value() - before; drawn != 0 {
		t.Fatalf("dead context still evaluated %d samples", drawn)
	}

	// Cancelled mid-run: returns at a batch boundary without burning
	// the rest of the budget.
	const budget = 1 << 26
	ctx2, cancel2 := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel2()
	before = metSamples.Value()
	_, err = EstimateLinkYieldCtx(ctx2, sc, YieldOptions{Samples: budget})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-run cancel: got %v, want context.DeadlineExceeded", err)
	}
	if drawn := metSamples.Value() - before; drawn >= budget {
		t.Fatalf("cancellation never stopped sampling (%d samples ran)", drawn)
	}
}

// TestRunCtxLiveMatchesRun pins that a live context changes nothing:
// the full Estimate is bit-identical to the context-free path, for
// plain MC, early-stopping, and shifted configurations.
func TestRunCtxLiveMatchesRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, c := range []struct {
		target float64
		o      YieldOptions
	}{
		{480e-12, YieldOptions{Samples: 4096, Seed: 11}},
		{480e-12, YieldOptions{Samples: 8192, Seed: 11, RelErr: 0.2}},
		{545e-12, YieldOptions{Samples: 2048, Seed: 11, Estimator: estimator.ISLE}},
	} {
		sc := testScenario(t, c.target)
		ref, err := EstimateLinkYieldCtx(context.Background(), sc, c.o)
		if err != nil {
			t.Fatal(err)
		}
		got, err := EstimateLinkYieldCtx(ctx, sc, c.o)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("live-ctx run diverged: %+v vs %+v (opts %+v)", got, ref, c.o)
		}
	}
}

func TestRunPropagatesTrialError(t *testing.T) {
	boom := fmt.Errorf("boom")
	_, err := runOracle(YieldOptions{Samples: 100}, 1, nil, func(i int, z []float64) (bool, error) {
		if i == 37 {
			return false, boom
		}
		return false, nil
	})
	if err == nil {
		t.Fatal("trial error swallowed")
	}
}

func TestRunValidation(t *testing.T) {
	ok := func(i int, z []float64) (bool, error) { return false, nil }
	for name, o := range map[string]YieldOptions{
		"negative-n": {Samples: -1},
		"bad-relerr": {RelErr: -0.1},
		"bad-abserr": {AbsErr: -0.1},
	} {
		if _, err := runOracle(o, 2, nil, ok); err == nil {
			t.Errorf("%s: invalid options accepted", name)
		}
	}
}

// TestRunRejectsNegativeBudgets pins the negative worker count's
// sentinel: the oracle's options and the yield-level options are both
// rejected up front with ErrNegativeWorkers.
func TestRunRejectsNegativeBudgets(t *testing.T) {
	ok := func(i int, z []float64) (bool, error) { return false, nil }
	if _, err := runOracle(YieldOptions{Samples: 100, Workers: -2}, 2, nil, ok); !errors.Is(err, ErrNegativeWorkers) {
		t.Errorf("oracle options: got %v, want ErrNegativeWorkers", err)
	}
	sc := testScenario(t, 480e-12)
	if _, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: 100, Workers: -2}); !errors.Is(err, ErrNegativeWorkers) {
		t.Errorf("yield options: got %v, want ErrNegativeWorkers", err)
	}
}
