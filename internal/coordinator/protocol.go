// Package coordinator implements the scale-out seam of the yield
// serving plane: a coordinator replica splits a yield request's
// [0, N) sample-index range into contiguous shards, fans them out over
// HTTP to a static set of worker replicas, and merges the partial
// accumulators in fixed index order, so the served Estimate is
// bit-identical to a single-process run at any shard count. The
// protocol only samples: the warm surface is the front's own, and a
// worker's surface serves only traffic sent to that worker directly.
//
// This package holds both ends of the protocol but serves no HTTP
// itself: the worker end is ExecuteShard, which cmd/predintd serves at
// POST /v1/internal/shard with its strict request decoder, admission
// control and compact JSON answers. That route is the only shard worker.
package coordinator

import (
	"context"
	"fmt"

	predint "repro"
	"repro/internal/obs"
	"repro/internal/variation"
)

// OpSample, the protocol's one operation, evaluates the contiguous
// sample range [Start, Start+Count) and returns its sparse partial
// accumulator.
const OpSample = "sample"

// ShardRequest is the body of POST /v1/internal/shard — the one RPC of
// the scale-out plane.
type ShardRequest struct {
	// Op names the operation; OpSample is the only one.
	Op string `json:"op"`
	// Req is the yield request being served, encoded as the /v1/yield
	// body is. Workers plan it locally — the plan is a pure function of
	// the request, so every replica derives the identical scenario and
	// PRNG keying — and design each link class and target once, in
	// their ShardPlans memo.
	Req predint.YieldRequest `json:"req"`
	// Start and Count give the sample range.
	Start int `json:"start,omitempty"`
	Count int `json:"count,omitempty"`
}

// ShardResponse answers a ShardRequest.
type ShardResponse struct {
	// Kind and Shifted report the shard's estimator rung and shift
	// decision; every replica reports the same values for the same
	// request. The coordinator refuses a shard whose Kind is not its
	// plan's, and asserts Shifted while merging.
	Kind    string `json:"kind,omitempty"`
	Shifted bool   `json:"shifted,omitempty"`
	// Part is the shard's sparse partial accumulator; the merge replays
	// it exactly.
	Part *variation.Partial `json:"part,omitempty"`
}

var (
	metShardsServed   = obs.NewCounter("coordinator.shards_served")
	metLocalFallbacks = obs.NewCounter("coordinator.local_fallbacks")
	metStoppedMidWave = obs.NewCounter("coordinator.stopped_mid_wave")
	metRequestsServed = obs.NewCounter("coordinator.requests")
	metNotShardable   = obs.NewCounter("coordinator.not_shardable")

	// Membership / health-probe lifecycle.
	metProbes        = obs.NewCounter("coordinator.health_probes")
	metProbeFailures = obs.NewCounter("coordinator.health_probe_failures")
	metEjections     = obs.NewCounter("coordinator.ejections")
	metReadmissions  = obs.NewCounter("coordinator.readmissions")

	// Circuit-breaker transitions and refusals.
	metBreakerOpens      = obs.NewCounter("coordinator.breaker_opens")
	metBreakerHalfOpens  = obs.NewCounter("coordinator.breaker_half_opens")
	metBreakerCloses     = obs.NewCounter("coordinator.breaker_closes")
	metBreakerRejections = obs.NewCounter("coordinator.breaker_rejections")

	// Hedged shard requests: issued, won by the hedge, won by the
	// primary (hedge wasted), and losing legs cancelled mid-flight.
	metHedges          = obs.NewCounter("coordinator.hedges")
	metHedgeWins       = obs.NewCounter("coordinator.hedge_wins")
	metHedgeLosses     = obs.NewCounter("coordinator.hedge_losses")
	metHedgesCancelled = obs.NewCounter("coordinator.hedges_cancelled")

	// Retry-After honor: sleeps taken because every replica was inside
	// a 503 backoff window.
	metRetryAfterWaits = obs.NewCounter("coordinator.retry_after_waits")
)

// ExecuteShard serves one ShardRequest, planning it through plans, the
// serving replica's memo. It is the worker side of the protocol.
// cmd/predintd serves it at /v1/internal/shard: the body is decoded as
// strictly as a public request (unknown fields, trailing data and
// bodies over -max-body are refused), a range over -max-yield-cost is
// refused, the call runs behind the server's admission control, and an
// error — an op other than OpSample among them — comes back as a JSON
// error document with the status the server gives it.
func ExecuteShard(ctx context.Context, plans *predint.ShardPlans, sr ShardRequest) (ShardResponse, error) {
	if sr.Op != OpSample {
		return ShardResponse{}, fmt.Errorf("coordinator: unknown shard op %q", sr.Op)
	}
	plan, err := plans.Plan(sr.Req)
	if err != nil {
		return ShardResponse{}, err
	}
	part, shifted, err := plan.CollectCtx(ctx, sr.Start, sr.Count)
	if err != nil {
		return ShardResponse{}, err
	}
	metShardsServed.Inc()
	return ShardResponse{Kind: plan.Kind(), Shifted: shifted, Part: &part}, nil
}
