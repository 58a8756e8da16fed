// Package coordinator implements the scale-out seam of the yield
// serving plane: a coordinator replica splits a yield request's
// [0, N) sample-index range into contiguous shards, fans them out over
// HTTP to a static set of worker replicas, and merges the partial
// accumulators in fixed index order, so the served Estimate is
// bit-identical to a single-process run at any shard count. The same
// protocol carries surface-cache traffic: probes and records are
// routed to the replica that owns the request's link class under
// rendezvous hashing.
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
	"repro/internal/surface"
	"repro/internal/variation"
)

// Shard protocol operations.
const (
	// OpSample evaluates the contiguous sample range [Start,
	// Start+Count) and returns its sparse partial accumulator.
	OpSample = "sample"
	// OpProbe asks the owning replica's warm surface for the request;
	// a surface-less replica answers a miss.
	OpProbe = "probe"
	// OpRecord feeds a completed estimate into the owning replica's
	// surface; a surface-less replica drops it (Recorded=false).
	OpRecord = "record"
)

// ShardRequest is the body of POST /v1/internal/shard — the one RPC of
// the scale-out plane.
type ShardRequest struct {
	// Op selects the operation: OpSample, OpProbe, or OpRecord.
	Op string `json:"op"`
	// Req is the yield request being served, encoded as the /v1/yield
	// body is (and Result as the /v1/yield answer). Workers replan it
	// locally — the plan is a pure function of the request, so every
	// replica derives the identical scenario and PRNG keying.
	Req predint.YieldRequest `json:"req"`
	// Start and Count give the sample range of an OpSample.
	Start int `json:"start,omitempty"`
	Count int `json:"count,omitempty"`
	// Result carries the completed estimate of an OpRecord.
	Result *predint.YieldResult `json:"result,omitempty"`
}

// ShardResponse answers a ShardRequest.
type ShardResponse struct {
	// Kind and Shifted report the estimator rung and shift decision of
	// an OpSample; every replica reports the same values for the same
	// request. The coordinator refuses a shard whose Kind is not its
	// plan's, and asserts Shifted while merging.
	Kind    string `json:"kind,omitempty"`
	Shifted bool   `json:"shifted,omitempty"`
	// Part is the sparse partial accumulator of an OpSample; the
	// merge replays it exactly.
	Part *variation.Partial `json:"part,omitempty"`
	// ProbeHit and Result report an OpProbe: Result is set only on a
	// warm hit.
	ProbeHit bool                 `json:"probe_hit,omitempty"`
	Result   *predint.YieldResult `json:"result,omitempty"`
	// Recorded acknowledges an OpRecord the surface accepted.
	Recorded bool `json:"recorded,omitempty"`
}

var (
	metShardsServed     = obs.NewCounter("coordinator.shards_served")
	metProbesServed     = obs.NewCounter("coordinator.probes_served")
	metRecordsServed    = obs.NewCounter("coordinator.records_served")
	metProbeHits        = obs.NewCounter("coordinator.probe_hits")
	metLocalFallbacks   = obs.NewCounter("coordinator.local_fallbacks")
	metStoppedMidWave   = obs.NewCounter("coordinator.stopped_mid_wave")
	metRequestsServed   = obs.NewCounter("coordinator.requests")
	metNotShardable     = obs.NewCounter("coordinator.not_shardable")
	metOwnerProbeMisses = obs.NewCounter("coordinator.owner_probe_misses")

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

// ExecuteShard serves one ShardRequest against this replica's surface
// cache (nil when the replica runs surface-less). It is the worker
// side of the protocol. cmd/predintd serves it at /v1/internal/shard:
// the body is decoded as strictly as a public request (unknown fields,
// trailing data and bodies over -max-body are refused), the call runs
// behind the server's admission control, and an error comes back as a
// JSON error document with the status the server gives it.
func ExecuteShard(ctx context.Context, surf *surface.Cache, sr ShardRequest) (ShardResponse, error) {
	sf := predint.Surfaced{Cache: surf}
	switch sr.Op {
	case OpSample:
		plan, err := predint.YieldShardPlanFor(sr.Req)
		if err != nil {
			return ShardResponse{}, err
		}
		part, shifted, err := plan.CollectCtx(ctx, sr.Start, sr.Count)
		if err != nil {
			return ShardResponse{}, err
		}
		metShardsServed.Inc()
		return ShardResponse{Kind: plan.Kind(), Shifted: shifted, Part: &part}, nil
	case OpProbe:
		metProbesServed.Inc()
		if surf == nil {
			return ShardResponse{}, nil
		}
		res, ok, err := sf.LinkYieldSurfaceCtx(ctx, sr.Req)
		if err != nil || !ok {
			return ShardResponse{}, err
		}
		return ShardResponse{ProbeHit: true, Result: &res}, nil
	case OpRecord:
		metRecordsServed.Inc()
		if surf == nil || sr.Result == nil {
			return ShardResponse{}, nil
		}
		if err := sf.RecordYield(sr.Req, *sr.Result); err != nil {
			return ShardResponse{}, err
		}
		return ShardResponse{Recorded: true}, nil
	default:
		return ShardResponse{}, fmt.Errorf("coordinator: unknown shard op %q", sr.Op)
	}
}
