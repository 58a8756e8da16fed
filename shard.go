package predint

import (
	"context"
	"fmt"

	"repro/internal/buffering"
	"repro/internal/estimator"
	"repro/internal/variation"
)

// This file exposes the sample-index sharding seam of a yield request
// to the serving layer: a coordinator replica plans the request once,
// asks worker replicas for contiguous index ranges (each worker plans
// it too — the plan is a pure function of the request — and a PlanMemo
// lets a replica design each link class once rather than once per
// shard), and merges the partial accumulators in index order. The
// merge replays the exact serial fold of the local kernel, so the
// coordinator's Estimate is bit-identical to a single-process run at
// any shard count.

// ErrNotShardable marks yield requests that cannot be partitioned by
// sample index: sizing requests (YieldTarget — the candidate search
// drives sampling adaptively), AIS (stage proposals depend on all prior
// draws), WCD (no sampling at all), and auto-routed deep-sigma requests
// (the pre-filter cascade may answer analytically with zero samples).
// The serving layer falls back to local execution for these. It is the
// engine's own sentinel, so a refusal from either layer matches it.
var ErrNotShardable = variation.ErrNotShardable

// YieldShardPlan is a validated yield request bound to its designed
// link, ready to collect or merge sample-index shards. Every replica
// planning the same request derives the same plan — the buffering
// optimization and the (seed, index)-keyed sampling are deterministic —
// which is what lets shards collected on different machines merge into
// the single-process answer.
type YieldShardPlan struct {
	p    *yieldPlan
	d    *shardDesign
	kind estimator.Kind
}

// shardDesign is the part of a shard plan that depends only on the
// link, the delay target and the sigma scale: the designed link, its
// variation scenario, and the memo of the scenario's ISLE shift. It
// never changes once built (the shift memo fills at most once), so
// plans of many requests share one.
type shardDesign struct {
	des   buffering.Design
	sc    *variation.LinkScenario
	shift *variation.ISLEShift
}

// YieldShardPlanFor validates the request and builds the shard plan,
// or reports (wrapping ErrNotShardable) that the request must run
// locally. It designs the link afresh on every call; PlanMemo.Plan is
// the memoized form.
func YieldShardPlanFor(req YieldRequest) (*YieldShardPlan, error) {
	p, kind, err := shardablePlan(req)
	if err != nil {
		return nil, err
	}
	des, err := buffering.Optimize(p.seg, p.bufOpts)
	if err != nil {
		return nil, err
	}
	return &YieldShardPlan{p: p, d: p.shardDesign(des), kind: kind}, nil
}

// shardablePlan validates the request and resolves its rung, refusing
// (with ErrNotShardable) what cannot be partitioned by sample index.
func shardablePlan(req YieldRequest) (*yieldPlan, estimator.Kind, error) {
	p, err := req.plan()
	if err != nil {
		return nil, "", err
	}
	if p.yt != nil {
		return nil, "", fmt.Errorf("%w: sizing (yield-target) requests drive sampling adaptively", ErrNotShardable)
	}
	kind, ok, err := p.mc.ShardableKind()
	if err != nil {
		return nil, "", err
	}
	if !ok {
		return nil, "", fmt.Errorf("%w: estimator rung is not index-keyed", ErrNotShardable)
	}
	return p, kind, nil
}

// shardDesign binds design des to the plan's scenario, with an empty
// shift memo.
func (p *yieldPlan) shardDesign(des buffering.Design) *shardDesign {
	return &shardDesign{des: des, sc: p.scenario(p.line(des)), shift: new(variation.ISLEShift)}
}

// Plan is YieldShardPlanFor through the memo: the same validation, the
// same refusals, and the same plan, with the design read from the shard
// entry of the request's link class and target, or on a miss from the
// class entry.
func (m *PlanMemo) Plan(req YieldRequest) (*YieldShardPlan, error) {
	p, kind, err := shardablePlan(req)
	if err != nil {
		return nil, err
	}
	d, err := m.shards.get(p.planKey(), func() (*shardDesign, error) {
		des, err := m.nominal(p)
		if err != nil {
			return nil, err
		}
		return p.shardDesign(des), nil
	})
	if err != nil {
		return nil, err
	}
	return &YieldShardPlan{p: p, d: d, kind: kind}, nil
}

// Kind names the resolved estimator rung the shards will run.
func (pl *YieldShardPlan) Kind() string { return string(pl.kind) }

// Samples is the resolved total sample budget — the index range to
// cover is [0, Samples).
func (pl *YieldShardPlan) Samples() int {
	return pl.p.mc.ResolvedSamples()
}

// Batch is the engine's checkpoint spacing (variation.Batch). Shard
// boundaries need not align to it, but the global stopping rule only
// fires at its multiples in the merged fold, so aligned shards waste
// the least work.
func (pl *YieldShardPlan) Batch() int {
	return variation.Batch
}

// CollectCtx evaluates the contiguous index range [start, start+count)
// and returns its sparse partial accumulator plus whether the shifted
// (importance-sampled) kernel was in effect. Every replica reports the
// same shifted flag for the same request: the shift construction is
// deterministic in the scenario. An ISLE plan searches for its shift
// on its first collect and reuses it after, as does every plan sharing
// its design.
func (pl *YieldShardPlan) CollectCtx(ctx context.Context, start, count int) (variation.Partial, bool, error) {
	part, kind, shifted, err := variation.CollectPartialCtx(ctx, pl.d.sc, pl.d.shift, pl.p.mc, start, count)
	if err != nil {
		return variation.Partial{}, false, err
	}
	if kind != pl.kind {
		return variation.Partial{}, false, fmt.Errorf("predint: shard resolved estimator %q, plan expected %q", kind, pl.kind)
	}
	return part, shifted, nil
}

// Merge folds the collected shards in index order, applying the global
// stopping rule exactly where the local kernel would. done reports
// that the fold either hit a stopping rule or consumed the full
// budget — outstanding shards past that point are dead work.
func (pl *YieldShardPlan) Merge(parts []variation.Partial, shifted bool) (variation.Estimate, bool, error) {
	return variation.MergePartials(pl.p.mc, pl.kind, shifted, parts)
}

// Result assembles the externally served YieldResult from a merged
// estimate, exactly as the local full-sampling path would.
func (pl *YieldShardPlan) Result(est variation.Estimate) YieldResult {
	return pl.p.result(pl.d.des, est, SourceMC)
}
