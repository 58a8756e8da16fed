package variation

import (
	"context"
	"errors"
	"testing"

	"repro/internal/buffering"
	"repro/internal/model"
	"repro/internal/tech"
	"repro/internal/wire"
)

// TestSizeForYieldUnreachableNotMisreportedAsInfeasible pins the error
// classification fix: when feasible candidates exist (their nominal
// delays meet the target) but none reaches the yield target — and the
// candidate budget is NOT exhausted — the search must report
// ErrYieldUnreachable. It used to fall through to
// buffering.ErrNoFeasibleDesign, telling the caller "geometry
// infeasible" when the geometry was fine and the statistics were the
// problem.
func TestSizeForYieldUnreachableNotMisreportedAsInfeasible(t *testing.T) {
	tc := tech.MustLookup("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	// Target a few ps above the delay-optimal nominal delay: a handful
	// of candidates are nominally feasible, but with 3× sigmas the
	// yield at that razor-thin margin hovers near 0.5 — no candidate
	// can reach 0.999.
	opt, err := buffering.Optimize(seg, buffering.Options{
		Coeffs: model.MustDefault("90nm"),
		Power:  model.PowerParams{Activity: 0.15, Freq: tc.Clock},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = SizeForYieldCtx(context.Background(), tc, seg, SizingOptions{
		Buffering: buffering.Options{
			Coeffs: model.MustDefault("90nm"),
			Power:  model.PowerParams{Activity: 0.15, Freq: tc.Clock},
		},
		Space:       DefaultSpace().Scaled(3),
		Target:      opt.Delay * 1.01,
		YieldTarget: 0.999,
		MC:          YieldOptions{Samples: 512, Seed: 1},
	})
	if err == nil {
		t.Fatal("expected the yield target to be unreachable in this scenario")
	}
	if !errors.Is(err, ErrYieldUnreachable) {
		t.Fatalf("got %v, want ErrYieldUnreachable", err)
	}
	if errors.Is(err, buffering.ErrNoFeasibleDesign) {
		t.Fatalf("unreachable yield misreported as geometry infeasibility: %v", err)
	}
}

// TestZeroFailureEscapeGatedOnPlainMC pins the stopping-rule fix: the
// rule-of-three escape (no failures in n samples ⇒ p < 3/n at 95%)
// assumes Bernoulli 0/1 indicators, which importance-sampled runs do
// not have — their contributions are likelihood-ratio weights that can
// exceed 1, so a weighted zero-failure prefix certifies nothing. A
// shifted run with zero failures must burn its full budget; the same
// run unshifted keeps the historical early escape.
func TestZeroFailureEscapeGatedOnPlainMC(t *testing.T) {
	never := func(i int, z []float64) (bool, error) { return false, nil }
	const budget = 4096

	shifted, err := runOracle(YieldOptions{Samples: budget, RelErr: 0.05, Seed: 3}, 2,
		[]float64{2, 0}, never)
	if err != nil {
		t.Fatal(err)
	}
	if !shifted.Shifted {
		t.Fatal("shift did not engage")
	}
	if shifted.Samples != budget {
		t.Fatalf("shifted zero-failure run stopped at %d of %d samples via the rule-of-three escape, "+
			"which is invalid under importance weights", shifted.Samples, budget)
	}

	plain, err := runOracle(YieldOptions{Samples: budget, RelErr: 0.05, Seed: 3}, 2, nil, never)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Samples >= budget {
		t.Fatalf("plain zero-failure run lost its escape (ran all %d samples)", plain.Samples)
	}
}

// TestZeroFailureEscapeGatedPerCandidateInSharedKernel extends the
// gate to the cross-candidate kernel: in one shared run, a plain
// candidate with zero failures escapes early while a shifted
// zero-failure candidate keeps sampling to the budget. The run's kernel
// carries a hand-picked shift for candidate 1 alone.
func TestZeroFailureEscapeGatedPerCandidateInSharedKernel(t *testing.T) {
	sc := testScenario(t, 480e-12)
	// A delay target far above anything the link can produce: no draw
	// ever fails, for either candidate.
	const loose = 10e-9
	ms := &MultiScenario{
		Base:   sc.Base,
		Coeffs: sc.Coeffs,
		Space:  sc.Space,
		Specs:  []model.LineSpec{sc.Spec, sc.Spec},
		Target: loose,
	}
	const budget = 2048
	o := YieldOptions{Samples: budget, RelErr: 0.05, Seed: 3}
	d := shiftedDriver(ms, o, [][]float64{nil, {2, 0, 0, 0, 0, 0, 0}})
	defer d.close()
	ests, err := d.runShared(context.Background(), plainPass)
	if err != nil {
		t.Fatal(err)
	}
	if ests[0].Samples >= budget {
		t.Fatalf("plain candidate lost its zero-failure escape (%d samples)", ests[0].Samples)
	}
	if !ests[1].Shifted {
		t.Fatal("candidate 1's shift did not engage")
	}
	if ests[1].Samples != budget {
		t.Fatalf("shifted candidate escaped at %d of %d samples on an invalid bound", ests[1].Samples, budget)
	}
}
