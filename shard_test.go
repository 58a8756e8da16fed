package predint

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/variation"
)

// shardBase is the base shardable request of the memo tests on rung
// est: a target close enough to the nominal delay that a 512-sample
// shard sees failures under either rung.
func shardBase(est string) YieldRequest {
	return YieldRequest{
		Tech:      "90nm",
		LengthMM:  5,
		TargetPS:  Float(470),
		Samples:   Int(2048),
		Seed:      3,
		Workers:   1,
		Estimator: est,
	}
}

// collectShard collects [512, 1024) of pl; the shard's weights carry
// the plan's ISLE shift, so equal shards mean equal shifts.
func collectShard(t *testing.T, pl *YieldShardPlan) (variation.Partial, bool) {
	t.Helper()
	part, shifted, err := pl.CollectCtx(context.Background(), 512, 512)
	if err != nil {
		t.Fatal(err)
	}
	return part, shifted
}

// samePlan fails unless the memo-served plan got matches a fresh
// YieldShardPlanFor of req bit for bit: design, scenario, rung, a
// collected shard (and through its weights the ISLE shift), and the
// merged result of every shard. %#v prints each float in its shortest
// round-tripping form, so equal strings are equal bits.
func samePlan(t *testing.T, name string, got *YieldShardPlan, req YieldRequest) {
	t.Helper()
	fresh, err := YieldShardPlanFor(req)
	if err != nil {
		t.Fatal(err)
	}
	if g, w := fmt.Sprintf("%#v", got.d.des), fmt.Sprintf("%#v", fresh.d.des); g != w {
		t.Errorf("%s: memo design %s, fresh %s", name, g, w)
	}
	if g, w := fmt.Sprintf("%#v", *got.d.sc), fmt.Sprintf("%#v", *fresh.d.sc); g != w {
		t.Errorf("%s: memo scenario %s, fresh %s", name, g, w)
	}
	if got.kind != fresh.kind {
		t.Errorf("%s: memo rung %q, fresh %q", name, got.kind, fresh.kind)
	}
	gp, gs := collectShard(t, got)
	wp, ws := collectShard(t, fresh)
	if fmt.Sprintf("%#v", gp) != fmt.Sprintf("%#v", wp) || gs != ws {
		t.Errorf("%s: memo shard (shifted=%v) differs from a fresh plan's (shifted=%v)", name, gs, ws)
	}
	if g, w := mergedResult(t, got), mergedResult(t, fresh); g != w {
		t.Errorf("%s: memo result %+v, fresh %+v", name, g, w)
	}
}

// mergedResult collects every 512-sample shard of pl and merges them.
func mergedResult(t *testing.T, pl *YieldShardPlan) YieldResult {
	t.Helper()
	var parts []variation.Partial
	shifted := false
	for lo := 0; lo < pl.Samples(); lo += 512 {
		p, sh, err := pl.CollectCtx(context.Background(), lo, min(512, pl.Samples()-lo))
		if err != nil {
			t.Fatal(err)
		}
		parts, shifted = append(parts, p), sh
	}
	est, done, err := pl.Merge(parts, shifted)
	if err != nil || !done {
		t.Fatalf("merge: done=%v, %v", done, err)
	}
	return pl.Result(est)
}

// TestShardPlansKeyCompleteness changes one keyed field of a base
// request at a time. Each variant must miss the memo the base filled,
// and its memo-served plan must equal a fresh YieldShardPlanFor bit for
// bit, so a key that drops a field fails here. −0 and +0 are two keys.
func TestShardPlansKeyCompleteness(t *testing.T) {
	variants := []struct {
		name string
		edit func(*YieldRequest)
	}{
		{"tech", func(r *YieldRequest) { r.Tech = "65nm" }},
		{"length", func(r *YieldRequest) { r.LengthMM = 5.5 }},
		{"style", func(r *YieldRequest) { r.Style = Shielded }},
		{"power weight", func(r *YieldRequest) { r.PowerWeight = Float(0.7) }},
		{"input slew", func(r *YieldRequest) { r.InputSlewPS = Float(150) }},
		{"target", func(r *YieldRequest) { r.TargetPS = Float(480) }},
		{"sigma scale", func(r *YieldRequest) { r.SigmaScale = Float(1.3) }},
	}
	for _, est := range []string{"mc", "isle"} {
		base := shardBase(est)
		if part, _ := collectShard(t, mustPlan(t, base)); len(part.FailIdx) == 0 {
			t.Fatalf("%s: the base shard sees no failure; the fixture lost its teeth", est)
		}
		for _, v := range variants {
			m := NewShardPlans()
			if _, err := m.Plan(base); err != nil {
				t.Fatal(err)
			}
			req := base
			v.edit(&req)
			got, err := m.Plan(req)
			if err != nil {
				t.Fatal(err)
			}
			if hits, misses := m.Stats(); hits != 0 || misses != 2 {
				t.Errorf("%s/%s: %d hits, %d misses; the variant shared the base's entry", est, v.name, hits, misses)
			}
			samePlan(t, est+"/"+v.name, got, req)
		}
	}
	// The floats are keyed by their bits.
	m := NewShardPlans()
	for _, w := range []float64{0, math.Copysign(0, -1)} {
		req := shardBase("mc")
		req.PowerWeight = Float(w)
		if _, err := m.Plan(req); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := m.Stats(); hits != 0 || misses != 2 {
		t.Errorf("power weights +0 and −0: %d hits, %d misses, want two entries", hits, misses)
	}
}

// TestShardPlansSharePerRequestFields: requests that differ from the
// base only in fields every call applies afresh — seed, samples,
// workers, rel_err, abs_err, estimator and target_sigma — are served
// the base's entry, and each still gets its own bits.
func TestShardPlansSharePerRequestFields(t *testing.T) {
	variants := []struct {
		name string
		edit func(*YieldRequest)
	}{
		{"seed", func(r *YieldRequest) { r.Seed = 11 }},
		{"samples", func(r *YieldRequest) { r.Samples = Int(1536) }},
		{"workers", func(r *YieldRequest) { r.Workers = 3 }},
		{"rel_err", func(r *YieldRequest) { r.RelErr = Float(0.2) }},
		{"abs_err", func(r *YieldRequest) { r.AbsErr = Float(0.02) }},
		{"estimator", func(r *YieldRequest) { r.Estimator = "qmc" }},
		{"target_sigma", func(r *YieldRequest) { r.Estimator, r.TargetSigma = "isle", Float(4) }},
	}
	base := shardBase("mc")
	m := NewShardPlans()
	first, err := m.Plan(base)
	if err != nil {
		t.Fatal(err)
	}
	baseResult := mergedResult(t, first)
	for i, v := range variants {
		req := base
		v.edit(&req)
		got, err := m.Plan(req)
		if err != nil {
			t.Fatal(err)
		}
		if hits, misses := m.Stats(); hits != int64(i+1) || misses != 1 {
			t.Errorf("%s: %d hits, %d misses; want the base's entry", v.name, hits, misses)
		}
		samePlan(t, v.name, got, req)
		// Workers never moves a bit; every other field does.
		if same := mergedResult(t, got) == baseResult; same != (v.name == "workers") {
			t.Errorf("%s: the variant's result equals the base's: %v", v.name, same)
		}
	}
	// A sizing request is refused before the memo.
	req := base
	req.YieldTarget = Float(0.99)
	if _, err := m.Plan(req); !errors.Is(err, ErrNotShardable) {
		t.Errorf("sizing request: %v, want ErrNotShardable", err)
	}
	if hits, misses := m.Stats(); hits != int64(len(variants)) || misses != 1 {
		t.Errorf("a refused request moved the memo: %d hits, %d misses", hits, misses)
	}
}

// TestShardPlansBounded fills the memo past its capacity: it keeps at
// most shardPlansCap designs, the newest among them.
func TestShardPlansBounded(t *testing.T) {
	m := NewShardPlans()
	req := shardBase("mc")
	for i := 0; i < shardPlansCap+16; i++ {
		req.LengthMM = 1 + float64(i)/1000
		if _, err := m.Plan(req); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(m.designs); n != shardPlansCap {
		t.Fatalf("memo holds %d designs, want the cap %d", n, shardPlansCap)
	}
	if _, err := m.Plan(req); err != nil {
		t.Fatal(err)
	}
	if hits, misses := m.Stats(); hits != 1 || misses != shardPlansCap+16 {
		t.Errorf("%d hits, %d misses; the newest design was evicted", hits, misses)
	}
}

// TestShardPlansCancelledShift: an ISLE collect cancelled during the
// shift search fails and stores no shift, so the next request of the
// same entry searches again and answers exactly as a fresh plan does.
func TestShardPlansCancelledShift(t *testing.T) {
	m := NewShardPlans()
	req := shardBase("isle")
	pl, err := m.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := pl.CollectCtx(ctx, 0, 512); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled collect: %v, want context.Canceled", err)
	}
	again, err := m.Plan(req)
	if err != nil {
		t.Fatal(err)
	}
	if hits, _ := m.Stats(); hits != 1 {
		t.Fatalf("the second plan missed the entry (%d hits)", hits)
	}
	samePlan(t, "after a cancelled search", again, req)
}

func mustPlan(t *testing.T, req YieldRequest) *YieldShardPlan {
	t.Helper()
	pl, err := YieldShardPlanFor(req)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}
