package variation

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/estimator"
)

// collectAll evaluates [0, Samples) as a set of shards of the given
// sizes (cycling through the list) and returns the parts plus the
// shifted flag the shards agreed on.
func collectAll(t *testing.T, sc *LinkScenario, o YieldOptions, sizes []int) ([]Partial, bool) {
	t.Helper()
	samples := o.ResolvedSamples()
	var parts []Partial
	shifted := false
	var shift ISLEShift // one scenario, so its shards share one memo
	for start, si := 0, 0; start < samples; si++ {
		count := sizes[si%len(sizes)]
		if rem := samples - start; rem < count {
			count = rem
		}
		p, _, sh, err := CollectPartialCtx(context.Background(), sc, &shift, o, start, count)
		if err != nil {
			t.Fatalf("CollectPartialCtx(%d,%d): %v", start, count, err)
		}
		if start == 0 {
			shifted = sh
		} else if sh != shifted {
			t.Fatalf("shard at %d reports shifted=%v, first shard said %v", start, sh, shifted)
		}
		parts = append(parts, p)
		start += count
	}
	return parts, shifted
}

// TestPartialMergeBitIdentity is the distributed-kernel contract: for
// every shardable rung and every shard layout — including unaligned
// and single-sample shards — collecting the range in pieces and
// replaying the merge reproduces the local estimate bit for bit.
func TestPartialMergeBitIdentity(t *testing.T) {
	layouts := [][]int{
		{4096},            // one shard
		{512},             // batch-aligned
		{1000},            // unaligned
		{100, 700, 33, 1}, // ragged mix
	}
	cases := []struct {
		name string
		o    YieldOptions
		// stopsEarly marks cases whose local run must stop before the
		// budget, so the merge's in-fold stop is exercised.
		stopsEarly bool
	}{
		{"mc", YieldOptions{Samples: 4096, Seed: 11}, false},
		{"isle", YieldOptions{Samples: 4096, Seed: 11, Estimator: estimator.ISLE}, false},
		{"qmc", YieldOptions{Samples: 4096, Seed: 11, Estimator: estimator.QMC}, false},
		{"mc-relerr", YieldOptions{Samples: 4096, Seed: 11, RelErr: 0.2}, false},
		// 3000 is not a multiple of the 256-sample batch: qmc stops at a
		// late batch boundary inside the merge, and isle runs to the
		// budget, whose unaligned end is the final checkpoint.
		{"qmc-relerr", YieldOptions{Samples: 3000, Seed: 11, Estimator: estimator.QMC, RelErr: 0.05}, true},
		{"isle-relerr", YieldOptions{Samples: 3000, Seed: 11, Estimator: estimator.ISLE, RelErr: 0.02}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc := testScenario(t, 480e-12)
			want, err := EstimateLinkYieldCtx(context.Background(), sc, tc.o)
			if err != nil {
				t.Fatal(err)
			}
			if tc.stopsEarly && want.Samples >= tc.o.Samples {
				t.Fatalf("local run burned the whole budget (%d) — the case needs an early stop", want.Samples)
			}
			kind, ok, err := tc.o.ShardableKind()
			if err != nil || !ok {
				t.Fatalf("ShardableKind: %v, %v", ok, err)
			}
			for _, layout := range layouts {
				parts, shifted := collectAll(t, sc, tc.o, layout)
				got, done, err := MergePartials(tc.o, kind, shifted, parts)
				if err != nil {
					t.Fatalf("layout %v: %v", layout, err)
				}
				if !done {
					t.Fatalf("layout %v: full coverage not done", layout)
				}
				if got != want {
					t.Fatalf("layout %v: merged %+v != local %+v", layout, got, want)
				}
			}
		})
	}
}

// TestPartialMergeStopsEarly pins the global stopping rule living in
// the merge: with RelErr set, the merged fold must truncate at the same
// sample the local kernel stops at — fewer samples than the budget —
// and report done before the full range is covered.
func TestPartialMergeStopsEarly(t *testing.T) {
	sc := testScenario(t, 480e-12)
	o := YieldOptions{Samples: 8192, Seed: 5, RelErr: 0.2}
	want, err := EstimateLinkYieldCtx(context.Background(), sc, o)
	if err != nil {
		t.Fatal(err)
	}
	if want.Samples >= 8192 {
		t.Fatalf("local run burned the whole budget (%d) — test needs an early stop", want.Samples)
	}

	// Collect only a prefix that covers the stop point, not the budget:
	// the merge must report done without the remaining shards.
	var parts []Partial
	for start := 0; start < want.Samples+512; start += 512 {
		p, kind, shifted, err := CollectPartialCtx(context.Background(), sc, new(ISLEShift), o, start, 512)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
		got, done, err := MergePartials(o, kind, shifted, parts)
		if err != nil {
			t.Fatal(err)
		}
		if covered := start + 512; covered < want.Samples {
			if done {
				t.Fatalf("done after only %d samples, local stop was at %d", covered, want.Samples)
			}
			continue
		}
		if !done {
			t.Fatalf("not done after covering %d samples, local stop was at %d", start+512, want.Samples)
		}
		if got != want {
			t.Fatalf("merged %+v != local %+v", got, want)
		}
		return
	}
}

// TestShardableKind pins which rungs distribute: the index-keyed
// sampling rungs do, AIS/WCD and the auto ≥3σ cascade (which may
// answer analytically with zero samples) do not.
func TestShardableKind(t *testing.T) {
	cases := []struct {
		name string
		o    YieldOptions
		want estimator.Kind
		ok   bool
	}{
		{"mc", YieldOptions{}, estimator.MC, true},
		{"qmc", YieldOptions{Estimator: estimator.QMC}, estimator.QMC, true},
		{"explicit-isle", YieldOptions{Estimator: estimator.ISLE}, estimator.ISLE, true},
		{"ais", YieldOptions{Estimator: estimator.AIS}, estimator.AIS, false},
		{"wcd", YieldOptions{Estimator: estimator.WCD}, estimator.WCD, false},
		{"auto-cascade", YieldOptions{TargetSigma: 4}, "", false},
		{"explicit-past-cascade", YieldOptions{Estimator: estimator.ISLE, TargetSigma: 4}, estimator.ISLE, true},
	}
	for _, tc := range cases {
		kind, ok, err := tc.o.ShardableKind()
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if ok != tc.ok {
			t.Errorf("%s: shardable=%v, want %v", tc.name, ok, tc.ok)
		}
		if tc.want != "" && kind != tc.want {
			t.Errorf("%s: kind %q, want %q", tc.name, kind, tc.want)
		}
	}
	// A count whose end overflows int is outside the budget, not a
	// near-endless shard.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := CollectPartialCtx(ctx, testScenario(t, 480e-12), new(ISLEShift), YieldOptions{}, 1, math.MaxInt); err == nil || errors.Is(err, context.Canceled) {
		t.Errorf("overflowing shard range: err %v, want a range error", err)
	}
	if _, _, _, err := CollectPartialCtx(context.Background(), testScenario(t, 480e-12), new(ISLEShift), YieldOptions{Estimator: estimator.AIS}, 0, 64); err == nil {
		t.Error("collecting an AIS shard succeeded, want ErrNotShardable")
	} else if !errors.Is(err, ErrNotShardable) {
		t.Errorf("AIS shard error %v does not wrap ErrNotShardable", err)
	}
}

// TestMergePartialsRejectsMalformedSets: gaps, overlaps, non-zero
// starts, out-of-range shards, and weights inconsistent with the merge's
// shifted flag are protocol violations, not silent mis-merges.
func TestMergePartialsRejectsMalformedSets(t *testing.T) {
	o := YieldOptions{Samples: 1024}
	bad := []struct {
		name    string
		shifted bool
		parts   []Partial
	}{
		{"empty", false, nil},
		{"gap", false, []Partial{{Start: 0, Count: 256}, {Start: 512, Count: 512}}},
		{"overlap", false, []Partial{{Start: 0, Count: 512}, {Start: 256, Count: 512}}},
		{"nonzero-start", false, []Partial{{Start: 256, Count: 256}}},
		{"past-budget", false, []Partial{{Start: 0, Count: 2048}}},
		{"descending-failures", false, []Partial{{Start: 0, Count: 256, FailIdx: []int{5, 3}}}},
		{"foreign-failure", false, []Partial{{Start: 0, Count: 256, FailIdx: []int{300}}}},
		{"weight-mismatch", false, []Partial{{Start: 0, Count: 256, FailIdx: []int{1}, Weights: []float64{1, 2}}}},
		{"weights-on-unshifted", false, []Partial{{Start: 0, Count: 256, FailIdx: []int{3}, Weights: []float64{500}}}},
		{"shifted-without-weights", true, []Partial{{Start: 0, Count: 256, FailIdx: []int{3}}}},
		{"negative-weight", true, []Partial{{Start: 0, Count: 256, FailIdx: []int{3}, Weights: []float64{-2}}}},
		{"overflowing-range", false, []Partial{{Start: 0, Count: 512}, {Start: 512, Count: math.MaxInt}}},
	}
	for _, tc := range bad {
		kind := estimator.MC
		if tc.shifted {
			kind = estimator.ISLE
		}
		if _, _, err := MergePartials(o, kind, tc.shifted, tc.parts); err == nil {
			t.Errorf("%s: merge succeeded, want error", tc.name)
		}
	}
}

// TestAISEstimationStageStops pins the satellite fix: the AIS final
// stage honors RelErr instead of burning the full budget, stays
// bit-identical across worker counts, and still runs to the budget when
// no tolerance is set.
func TestAISEstimationStageStops(t *testing.T) {
	sc := testScenario(t, 480e-12)
	budget := 8192

	full, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: budget, Seed: 3, Estimator: estimator.AIS})
	if err != nil {
		t.Fatal(err)
	}
	if full.Samples != budget {
		t.Fatalf("no-tolerance AIS run evaluated %d samples, want the whole budget %d", full.Samples, budget)
	}

	early, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: budget, Seed: 3, Estimator: estimator.AIS, RelErr: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if early.Samples >= budget {
		t.Fatalf("RelErr-bounded AIS run still burned the whole budget (%d samples)", early.Samples)
	}
	if early.StdErr <= 0 || early.StdErr/early.FailProb > 0.2+1e-12 {
		t.Fatalf("early stop fired at rel err %g, want ≤ 0.2", early.StdErr/early.FailProb)
	}
	// The early estimate must agree with the full-budget one within the
	// (generous) combined error bars.
	if diff := early.FailProb - full.FailProb; diff > 5*(early.StdErr+full.StdErr) || -diff > 5*(early.StdErr+full.StdErr) {
		t.Fatalf("early estimate %g inconsistent with full-budget %g (se %g / %g)", early.FailProb, full.FailProb, early.StdErr, full.StdErr)
	}

	for _, workers := range []int{1, 4, 8} {
		got, err := EstimateLinkYieldCtx(context.Background(), sc, YieldOptions{Samples: budget, Seed: 3, Estimator: estimator.AIS, RelErr: 0.2, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got != early {
			t.Fatalf("workers=%d: %+v != workers-default %+v — early stop broke bit-identity", workers, got, early)
		}
	}
}
