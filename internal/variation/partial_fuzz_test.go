package variation

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"testing"

	"repro/internal/estimator"
)

// FuzzMergePartials fuzzes the shard wire format: arbitrary bytes are
// decoded as a JSON []Partial and merged under a fuzzed shifted flag and
// rung. A malformed set must be rejected, never panic or fold to a
// non-finite or over-budget estimate. The seed corpus is real shard sets
// of the link fixture, and for those the merge must equal the local run.
func FuzzMergePartials(f *testing.F) {
	kinds := []estimator.Kind{estimator.MC, estimator.ISLE, estimator.QMC}
	// 1000 samples is not batch-aligned, and RelErr lets the fold stop
	// inside the merge.
	opts := func(kind estimator.Kind) YieldOptions {
		return YieldOptions{Samples: 1000, Seed: 7, Estimator: kind, RelErr: 0.2}
	}
	key := func(data []byte, shifted bool, k uint8) string {
		return fmt.Sprintf("%s|%v|%d", data, shifted, k)
	}
	sc := testScenario(f, 480e-12)
	want := map[string]Estimate{}
	for k, kind := range kinds {
		o := opts(kind)
		local, err := EstimateLinkYieldCtx(context.Background(), sc, o)
		if err != nil {
			f.Fatal(err)
		}
		for _, size := range []int{1000, 300} {
			var parts []Partial
			shifted := false
			for start := 0; start < 1000; start += size {
				p, _, sh, err := CollectPartialCtx(context.Background(), sc, new(ISLEShift), o, start, min(size, 1000-start))
				if err != nil {
					f.Fatal(err)
				}
				parts, shifted = append(parts, p), sh
			}
			data, err := json.Marshal(parts)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data, shifted, uint8(k))
			want[key(data, shifted, uint8(k))] = local
		}
	}
	f.Add([]byte(`[{"start":0,"count":1000,"fail_idx":[3],"weights":[1e300]}]`), true, uint8(1))
	f.Add([]byte(`[{"start":0,"count":500},{"start":500,"count":500,"fail_idx":[999]}]`), false, uint8(2))

	f.Fuzz(func(t *testing.T, data []byte, shifted bool, k uint8) {
		var parts []Partial
		if json.Unmarshal(data, &parts) != nil {
			return
		}
		kind := kinds[int(k)%len(kinds)]
		got, _, err := MergePartials(opts(kind), kind, shifted, parts)
		if err != nil {
			return
		}
		if math.IsNaN(got.FailProb) || math.IsInf(got.FailProb, 0) || math.IsNaN(got.StdErr) || math.IsInf(got.StdErr, 0) {
			t.Fatalf("merge succeeded with a non-finite estimate %+v", got)
		}
		if got.Samples > 1000 {
			t.Fatalf("merge folded %d samples past the 1000-sample budget", got.Samples)
		}
		if w, ok := want[key(data, shifted, k)]; ok && got != w {
			t.Fatalf("merged %+v != local %+v", got, w)
		}
	})
}
