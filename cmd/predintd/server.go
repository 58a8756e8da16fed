package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	predint "repro"
	"repro/internal/coordinator"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/surface"
)

// Serving-layer metrics. queue_depth and inflight are levels; shed and
// degraded count the hardening paths firing; latency carries p50/p99
// through the shared registry.
var (
	metRequests   = obs.NewCounter("predintd.requests")
	metShed       = obs.NewCounter("predintd.shed")
	metDegraded   = obs.NewCounter("predintd.degraded")
	metQueueDepth = obs.NewGauge("predintd.queue_depth")
	metInflight   = obs.NewGauge("predintd.inflight")
	metLatency    = obs.NewHistogram("predintd.latency")
	// Warm-surface tier outcomes on the yield endpoints; the hit ratio
	// hits/(hits+misses) is the cache's effectiveness on live traffic.
	// Neither moves while the surface is disabled.
	metSurfaceHits   = obs.NewCounter("predintd.yield_surface_hits")
	metSurfaceMisses = obs.NewCounter("predintd.yield_surface_misses")
)

// Per-estimator serve counts on the yield endpoints: which rung of the
// high-sigma ladder actually answered live traffic (one increment per
// result, so a batch moves its counter once per candidate). Degraded
// nominal results carry no estimator and land in yield_by_nominal.
var metYieldByEstimator = map[string]*obs.Counter{
	"mc":   obs.NewCounter("predintd.yield_by_mc"),
	"qmc":  obs.NewCounter("predintd.yield_by_qmc"),
	"isle": obs.NewCounter("predintd.yield_by_isle"),
	"ais":  obs.NewCounter("predintd.yield_by_ais"),
	"wcd":  obs.NewCounter("predintd.yield_by_wcd"),
	"":     obs.NewCounter("predintd.yield_by_nominal"),
}

// countServed moves one yield_by_<rung> counter per served result.
func countServed(results ...predint.YieldResult) {
	for _, res := range results {
		if c, ok := metYieldByEstimator[res.Estimator]; ok {
			c.Inc()
		}
	}
}

// server is the hardened HTTP facade over the predint engines. Every
// v1 request passes admission control (bounded queue + in-flight cap,
// shedding beyond), runs under a per-request deadline, and the yield
// endpoints additionally degrade to the closed-form nominal estimate
// when their Monte Carlo cost exceeds the cost ceiling or the queue is
// under pressure.
type server struct {
	inflight     chan struct{} // slot semaphore; capacity = in-flight cap
	queued       atomic.Int64  // admitted requests not yet holding a slot
	queueDepth   int64         // waiting requests beyond which we shed
	maxYieldCost int           // largest Monte Carlo cost served in full
	maxBody      int64         // request-body byte cap; overflow is a 413
	reqTimeout   time.Duration // server-side per-request deadline
	retryAfter   time.Duration // Retry-After hint on shed responses
	draining     atomic.Bool   // set on SIGTERM before the listener drains

	// surf is this replica's own yield-surface cache (nil when running
	// surface-less). It is per-server, not process-global, so loopback
	// multi-replica tests — and real multi-replica deployments — get
	// independent warm state per replica.
	surf *surface.Cache
	// coord, when set, fans /v1/yield sample ranges out over the
	// configured worker replicas; nil serves everything locally.
	coord *coordinator.Coordinator
	// plans is this replica's plan memo, per server like surf: the
	// shard route plans through it, and the local and degraded yield
	// paths read each link class's design and sizing candidates from
	// it. A coordinator front uses its coordinator's memo, so the
	// fan-out shares it too.
	plans *predint.PlanMemo
	// shardFault names the fault point guarding /v1/internal/shard;
	// tests give each loopback replica its own name to fail workers
	// selectively.
	shardFault string
}

func newServer(inflight, queue, maxYieldCost int, reqTimeout, retryAfter time.Duration) *server {
	return &server{
		inflight:     make(chan struct{}, inflight),
		queueDepth:   int64(queue),
		maxYieldCost: maxYieldCost,
		maxBody:      1 << 20,
		reqTimeout:   reqTimeout,
		retryAfter:   retryAfter,
		plans:        predint.NewPlanMemo(),
		shardFault:   "predintd.shard",
	}
}

// pressureKey carries the admission-time queue-pressure observation to
// the handler (degrade decisions must use the state seen at admission,
// not whatever the queue looks like once the handler runs).
type ctxKey int

const pressureKey ctxKey = iota

func pressured(ctx context.Context) bool {
	p, _ := ctx.Value(pressureKey).(bool)
	return p
}

func (s *server) routes() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/link", s.admit(s.handleLink))
	mux.HandleFunc("POST /v1/yield", s.admit(s.handleYield))
	mux.HandleFunc("POST /v1/yield/batch", s.admit(s.handleYieldBatch))
	mux.HandleFunc("POST /v1/noc", s.admit(s.handleNoC))
	mux.HandleFunc("POST /v1/internal/shard", s.admit(s.handleShard))
	mux.HandleFunc("GET /v1/internal/workers", s.handleWorkers)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.Handle("GET /metrics", obs.Handler())
	return mux
}

// apiFunc is one endpoint's logic: context in, response document (or
// error) out. The admission wrapper owns deadlines, shedding, panic
// containment, and serialization.
type apiFunc func(ctx context.Context, r *http.Request) (any, error)

// admit wraps an endpoint with the hardening layers, outermost first:
// drain check, bounded queue with shedding, in-flight slot wait
// (bounded by the request deadline), panic containment, latency
// accounting.
func (s *server) admit(fn apiFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		metRequests.Inc()
		if s.draining.Load() {
			s.shed(w, "draining")
			return
		}

		d, err := s.deadline(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()

		waiting := s.queued.Add(1)
		metQueueDepth.Set(waiting)
		if waiting > s.queueDepth {
			s.queued.Add(-1)
			metQueueDepth.Set(s.queued.Load())
			s.shed(w, "queue full")
			return
		}
		// Queue pressure is observed before the slot wait: a request
		// that could not start immediately sees pressured=true even if
		// a slot frees up a microsecond later.
		underPressure := false
		select {
		case s.inflight <- struct{}{}:
		default:
			underPressure = true
			select {
			case s.inflight <- struct{}{}:
			case <-ctx.Done():
				s.queued.Add(-1)
				metQueueDepth.Set(s.queued.Load())
				// This is a shed, same as queue-full: the request was
				// turned away by load, not by its own fault, so it must
				// carry the Retry-After hint and move the shed metric —
				// load-based clients key their backoff on both.
				s.shedWith(w, http.StatusGatewayTimeout,
					fmt.Errorf("predintd: deadline expired while queued: %w", ctx.Err()))
				return
			}
		}
		s.queued.Add(-1)
		metQueueDepth.Set(s.queued.Load())
		metInflight.Add(1)
		start := time.Now()
		defer func() {
			<-s.inflight
			metInflight.Add(-1)
			metLatency.Observe(time.Since(start))
		}()
		defer func() {
			if p := recover(); p != nil {
				writeErr(w, http.StatusInternalServerError, fmt.Errorf("predintd: handler panicked: %v", p))
			}
		}()

		res, err := fn(context.WithValue(ctx, pressureKey, underPressure), r)
		if err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
		writeJSON(w, http.StatusOK, res)
	}
}

// deadline resolves the effective per-request deadline: the server's
// -request-timeout, tightened (never widened) by an optional ?timeout=
// query parameter.
func (s *server) deadline(r *http.Request) (time.Duration, error) {
	d := s.reqTimeout
	if v := r.URL.Query().Get("timeout"); v != "" {
		client, err := time.ParseDuration(v)
		if err != nil || client <= 0 {
			return 0, fmt.Errorf("predintd: invalid timeout parameter %q", v)
		}
		if client < d {
			d = client
		}
	}
	return d, nil
}

func (s *server) shed(w http.ResponseWriter, reason string) {
	s.shedWith(w, http.StatusServiceUnavailable, fmt.Errorf("predintd: overloaded (%s), retry later", reason))
}

// shedWith is the single exit for every load-based rejection,
// whatever its status code: it increments the shed metric and sets the
// Retry-After hint, so clients back off uniformly whether they were
// turned away at the queue (503) or timed out waiting in it (504).
func (s *server) shedWith(w http.ResponseWriter, status int, err error) {
	metShed.Inc()
	w.Header().Set("Retry-After", strconv.Itoa(int((s.retryAfter+time.Second-1)/time.Second)))
	writeErr(w, status, err)
}

func statusFor(err error) int {
	var pe *pool.PanicError
	var mbe *http.MaxBytesError
	switch {
	case errors.As(err, &mbe):
		// The body cap tripped: the client sent too much, and should
		// not retry the same payload.
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, faultinject.ErrInjected):
		return http.StatusInternalServerError
	case errors.As(err, &pe):
		// A recovered worker panic is a server fault, not a bad
		// request: surface it as a 500 like any other engine failure.
		return http.StatusInternalServerError
	default:
		// Everything else out of the engines is request validation.
		return http.StatusBadRequest
	}
}

// writeJSON writes doc in encoding/json's compact form. The
// coordinator's responseBound budgets a shard answer in this form, so
// indenting it would push honest answers over the bound.
func writeJSON(w http.ResponseWriter, status int, doc any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(doc)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeBody decodes a JSON request body strictly: unknown fields and
// trailing garbage are 400s, and bodies over the -max-body cap are
// 413s (http.MaxBytesReader stops reading at the cap, so a hostile or
// confused peer cannot balloon memory by streaming).
func (s *server) decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, s.maxBody))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		// Only whitespace may follow the document, so the next token
		// must be io.EOF. (dec.More() cannot tell: it is false before a
		// stray '}' or ']'.)
		if _, err = dec.Token(); err == io.EOF {
			return nil
		}
		if !errors.As(err, new(*http.MaxBytesError)) {
			err = errors.New("trailing data")
		}
	}
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return fmt.Errorf("predintd: request body over the %d-byte cap: %w", s.maxBody, err)
	}
	return fmt.Errorf("predintd: bad request body: %w", err)
}

// ---- /v1/link ----

func (s *server) handleLink(ctx context.Context, r *http.Request) (any, error) {
	if err := faultinject.Hit("predintd.handle"); err != nil {
		return nil, err
	}
	var req predint.LinkRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}
	return predint.DesignLinkCtx(ctx, req)
}

// ---- /v1/yield ----

// degradeYield decides the graceful-degradation path from the
// requested cost and the admission-time queue pressure. A request costs
// its Monte Carlo budget times the candidates the shared kernel scores
// at each sample: 1 for /v1/yield, len(candidates) for a batch.
func (s *server) degradeYield(ctx context.Context, samplesField *int, candidates int) bool {
	samples := predint.DefaultYieldSamples
	if samplesField != nil {
		samples = *samplesField
	}
	// samples × candidates > ceiling, without the product's overflow.
	return samples > s.maxYieldCost/max(candidates, 1) || pressured(ctx)
}

func (s *server) handleYield(ctx context.Context, r *http.Request) (any, error) {
	if err := faultinject.Hit("predintd.handle"); err != nil {
		return nil, err
	}
	var req predint.YieldRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}
	sf := predint.Surfaced{Cache: s.surf, Plans: s.plans}

	// Tier 1 — warm surface: consulted before any cost or pressure
	// decision, because a warm answer is cheaper than even the nominal
	// closed form. Under pressure a warm query is thus still served a
	// real (banded) estimate instead of the vacuous nominal step.
	if s.surf != nil && !req.NoSurface {
		res, ok, err := sf.LinkYieldSurfaceCtx(ctx, req)
		if err != nil {
			return nil, err
		}
		if ok {
			metSurfaceHits.Inc()
			countServed(res)
			return res, nil
		}
		metSurfaceMisses.Inc()
	}

	// Tier 2/3 — graceful degradation: a Monte Carlo budget beyond the
	// cost ceiling, or admission-time queue pressure, buys the
	// closed-form nominal estimate instead of an error or an unbounded
	// wait. The response is marked degraded and carries the vacuous
	// rule-of-three bound so callers can't mistake it for a sampled
	// estimate. Otherwise the full sampling path runs — fanned out
	// over the worker set in coordinator mode, locally otherwise (and
	// locally for requests the coordinator cannot shard).
	var res predint.YieldResult
	var err error
	switch {
	case s.degradeYield(ctx, req.Samples, 1):
		metDegraded.Inc()
		res, err = sf.LinkYieldNominalCtx(ctx, req)
	case s.coord != nil:
		res, err = s.coord.Estimate(ctx, req)
		switch {
		case errors.Is(err, predint.ErrNotShardable):
			res, err = sf.LinkYieldCtx(ctx, req)
		case err == nil && s.surf != nil && !req.NoSurface:
			// Warm this front's own tier 1, as the local path does.
			_ = sf.RecordYield(req, res)
		}
	default:
		res, err = sf.LinkYieldCtx(ctx, req)
	}
	if err != nil {
		return nil, err
	}
	countServed(res)
	return res, nil
}

// ---- /v1/yield/batch ----

// handleYieldBatch scores explicit candidate buffering solutions of
// one link on common random numbers (Surfaced.LinkYieldBatchCtx): one
// sample stream and one per-sample technology perturbation serve every
// candidate. The same degradation rule as /v1/yield applies to the
// batch's cost, its samples times its candidates — past the cost
// ceiling or under queue pressure every candidate gets the closed-form
// nominal evaluation, marked degraded.
func (s *server) handleYieldBatch(ctx context.Context, r *http.Request) (any, error) {
	if err := faultinject.Hit("predintd.handle"); err != nil {
		return nil, err
	}
	var req predint.YieldBatchRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}

	// The same three-tier ladder as /v1/yield, with the batch probe's
	// all-or-nothing rule: the surface answers only when every
	// candidate is warm. Batches are not coordinated: common random
	// numbers already amortize the sweep, and splitting K candidates ×
	// N samples is a different partitioning problem than the yield
	// endpoint's.
	sf := predint.Surfaced{Cache: s.surf, Plans: s.plans}
	if s.surf != nil && !req.NoSurface {
		res, ok, err := sf.LinkYieldBatchSurfaceCtx(ctx, req)
		if err != nil {
			return nil, err
		}
		if ok {
			metSurfaceHits.Inc()
			countServed(res.Results...)
			return res, nil
		}
		metSurfaceMisses.Inc()
	}

	var res predint.YieldBatchResult
	var err error
	if s.degradeYield(ctx, req.Samples, len(req.Candidates)) {
		metDegraded.Inc()
		res, err = predint.LinkYieldBatchNominalCtx(ctx, req)
	} else {
		res, err = sf.LinkYieldBatchCtx(ctx, req)
	}
	if err != nil {
		return nil, err
	}
	countServed(res.Results...)
	return res, nil
}

// ---- /v1/internal/shard ----

// handleShard serves the coordinator protocol's sample-range
// collection. It runs behind the same admission control as every v1
// endpoint, so an overloaded worker sheds shard traffic with a 503 and
// the coordinator retries against the next replica. A range longer
// than the cost ceiling is a 400: a front of the same build degrades
// such a budget before it shards, so only a misbehaving peer sends one.
func (s *server) handleShard(ctx context.Context, r *http.Request) (any, error) {
	if err := faultinject.Hit(s.shardFault); err != nil {
		return nil, err
	}
	var sr coordinator.ShardRequest
	if err := s.decodeBody(r, &sr); err != nil {
		return nil, err
	}
	if sr.Count > s.maxYieldCost {
		return nil, fmt.Errorf("predintd: shard of %d samples over the %d-sample cost ceiling (-max-yield-cost)", sr.Count, s.maxYieldCost)
	}
	return coordinator.ExecuteShard(ctx, s.plans, sr)
}

// ---- /v1/noc ----

// nocResultDTO projects a NoCResult onto the /v1/noc answer: the
// network's totals, with power_w as Metrics.TotalPower().
type nocResultDTO struct {
	Links           int     `json:"links"`
	Routers         int     `json:"routers"`
	PowerW          float64 `json:"power_w"`
	AreaM2          float64 `json:"area_m2"`
	AvgHops         float64 `json:"avg_hops"`
	MaxLinkLengthMM float64 `json:"max_link_length_mm"`
}

func (s *server) handleNoC(ctx context.Context, r *http.Request) (any, error) {
	if err := faultinject.Hit("predintd.handle"); err != nil {
		return nil, err
	}
	var req predint.NoCRequest
	if err := s.decodeBody(r, &req); err != nil {
		return nil, err
	}
	res, err := predint.SynthesizeNoCCtx(ctx, req)
	if err != nil {
		return nil, err
	}
	return nocResultDTO{
		Links:           res.Links,
		Routers:         res.Routers,
		PowerW:          res.Metrics.TotalPower(),
		AreaM2:          res.Metrics.Area,
		AvgHops:         res.Metrics.AvgHops,
		MaxLinkLengthMM: res.MaxLinkLengthMM,
	}, nil
}

// ---- /healthz, /readyz, /v1/internal/workers ----

// handleHealth is pure process liveness: as long as the process can
// answer HTTP it is alive, even while draining. Readiness — should
// this replica receive traffic — lives on /readyz.
func (s *server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady reports whether the replica should receive traffic: 503
// while draining, and — in coordinator mode with the prober on — 503
// until the first successful worker probe, so a load balancer never
// routes to a coordinator that has not yet seen a live worker.
func (s *server) handleReady(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	if s.coord != nil && !s.coord.Ready() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "waiting for first worker probe"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleWorkers is the membership admin snapshot: per-worker state,
// breaker, probe streaks, backoff, and RPC latency. Served outside
// admission control so it stays reachable while the data plane sheds.
func (s *server) handleWorkers(w http.ResponseWriter, r *http.Request) {
	if s.coord == nil {
		writeErr(w, http.StatusNotFound, errors.New("predintd: not running in coordinator mode"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"workers": s.coord.WorkersStatus()})
}
