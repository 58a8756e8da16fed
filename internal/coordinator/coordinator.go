package coordinator

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	predint "repro"
	"repro/internal/faultinject"
	"repro/internal/variation"
)

// Config configures a Coordinator.
type Config struct {
	// Workers lists the replica base addresses ("host:port" or full
	// URLs). Required, non-empty, no duplicates. The roster is fixed
	// here; afterwards the health prober only evicts and readmits its
	// members.
	Workers []string
	// Client is the HTTP client for shard RPCs; nil gets a 10 s
	// timeout default.
	Client *http.Client
	// ShardSamples is the per-shard sample count; 0 sizes shards so
	// the budget spans roughly two waves across the ready worker set
	// (rounded up to a batch multiple, so the merged fold's stopping
	// checks line up with shard boundaries).
	ShardSamples int
	// MaxAttempts bounds how many replicas a failing shard is retried
	// against before degrading to local execution; 0 means one attempt
	// per worker.
	MaxAttempts int

	// ProbeInterval is the background health-probe period; 0 disables
	// the prober (members are then only demoted by their breakers).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe; default 1 s.
	ProbeTimeout time.Duration
	// EjectAfter is the consecutive-probe-failure count that evicts a
	// member from dispatch; default 3.
	EjectAfter int
	// ReadmitAfter is the consecutive-probe-success count that
	// readmits an evicted member; default 2.
	ReadmitAfter int
	// BreakerThreshold is the consecutive request-failure count that
	// opens a member's circuit breaker; default 3.
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker refuses traffic
	// before admitting a half-open trial request; default 5 s.
	BreakerCooldown time.Duration
	// HedgeAfter re-issues a straggling shard on a second healthy
	// replica after this delay; the first valid response wins and the
	// loser is cancelled. 0 disables hedging.
	HedgeAfter time.Duration
}

// probePath is the worker readiness endpoint the prober hits:
// predintd's /readyz, which fails during a drain while /healthz stays
// pure process liveness.
const probePath = "/readyz"

// Coordinator fans yield requests out over a managed worker set. Safe
// for concurrent use. Close stops the background health prober.
type Coordinator struct {
	client        *http.Client
	shardSamples  int
	maxAttempts   int
	hedgeAfter    time.Duration
	probeInterval time.Duration
	probeTimeout  time.Duration
	mem           *membership
	scratch       sync.Pool // *rpcScratch
	// plans memoizes the fronted requests' designs, so a repeated link
	// class and target skips the buffering search here too.
	plans *predint.ShardPlans

	closeOnce sync.Once
	stop      chan struct{}
	done      chan struct{} // closed when the prober exits; nil if never started
}

// rpcScratch holds one shard RPC's reusable buffers: the marshaled
// request body, the response accumulation buffer, and the decode
// targets whose backing arrays (FailIdx/Weights) persist across calls.
// Pooled per Coordinator, so successive waves of a request — and
// successive requests — stop reallocating the encode/decode plumbing
// around every shard; only an exact-size detached clone of the Partial
// escapes callMember (the decoded scratch would otherwise be
// overwritten by the next wave while the merge still holds it).
type rpcScratch struct {
	enc  bytes.Buffer // marshaled ShardRequest
	body bytes.Reader // request-body view over enc's bytes
	resp bytes.Buffer // response body accumulation
	out  ShardResponse
	part variation.Partial // decode target behind out.Part
}

func (c *Coordinator) getScratch() *rpcScratch {
	if v := c.scratch.Get(); v != nil {
		return v.(*rpcScratch)
	}
	return &rpcScratch{}
}

// New validates the config and builds a Coordinator, starting the
// background health prober when ProbeInterval is positive.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("coordinator: need at least one worker")
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 10 * time.Second}
	}
	c := &Coordinator{
		client:        client,
		shardSamples:  cfg.ShardSamples,
		maxAttempts:   cfg.MaxAttempts,
		hedgeAfter:    cfg.HedgeAfter,
		probeInterval: cfg.ProbeInterval,
		probeTimeout:  cfg.ProbeTimeout,
		plans:         predint.NewShardPlans(),
		stop:          make(chan struct{}),
	}
	if c.probeTimeout <= 0 {
		c.probeTimeout = time.Second
	}
	threshold, cooldown := cfg.BreakerThreshold, cfg.BreakerCooldown
	if threshold <= 0 {
		threshold = 3
	}
	if cooldown <= 0 {
		cooldown = 5 * time.Second
	}
	c.mem = &membership{
		ejectAfter:   cfg.EjectAfter,
		readmitAfter: cfg.ReadmitAfter,
	}
	if c.mem.ejectAfter <= 0 {
		c.mem.ejectAfter = 3
	}
	if c.mem.readmitAfter <= 0 {
		c.mem.readmitAfter = 2
	}
	seen := make(map[string]bool, len(cfg.Workers))
	for i, w := range cfg.Workers {
		norm, err := normalizeWorker(w)
		if err != nil {
			return nil, fmt.Errorf("coordinator: worker at index %d: %w", i, err)
		}
		if seen[norm] {
			return nil, fmt.Errorf("coordinator: duplicate worker %s", norm)
		}
		seen[norm] = true
		c.mem.members = append(c.mem.members, newMember(norm, threshold, cooldown))
	}
	if c.probeInterval > 0 {
		c.done = make(chan struct{})
		go c.probeLoop()
	}
	return c, nil
}

// normalizeWorker canonicalizes one worker address.
func normalizeWorker(w string) (string, error) {
	w = strings.TrimSpace(w)
	if w == "" {
		return "", errors.New("empty worker address")
	}
	if !strings.Contains(w, "://") {
		w = "http://" + w
	}
	return strings.TrimRight(w, "/"), nil
}

// Close stops the background health prober and waits for it to exit.
// In-flight Estimate calls are unaffected.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() {
		close(c.stop)
		if c.done != nil {
			<-c.done
		}
	})
}

// Ready reports whether the coordinator is fit to serve: always with
// the prober disabled, otherwise only after the first successful
// worker probe. predintd's /readyz gates on this, so a front replica
// is not routed traffic before it can reach its fleet.
func (c *Coordinator) Ready() bool {
	if c.probeInterval <= 0 {
		return true
	}
	return c.mem.probed.Load()
}

// WorkersStatus snapshots every member's state for the admin endpoint.
func (c *Coordinator) WorkersStatus() []WorkerStatus {
	now := time.Now()
	out := make([]WorkerStatus, len(c.mem.members))
	for i, m := range c.mem.members {
		out[i] = m.status(now)
	}
	return out
}

// probeLoop is the background health prober: every interval it probes
// each member's readiness endpoint, feeding consecutive-failure
// eviction and consecutive-success readmission. The first pass runs
// immediately so Ready() does not wait a full interval after startup.
func (c *Coordinator) probeLoop() {
	defer close(c.done)
	ticker := time.NewTicker(c.probeInterval)
	defer ticker.Stop()
	c.probeAll()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.probeAll()
		}
	}
}

// probeAll probes the members concurrently with bounded fan-out, so a
// few hung workers (each costing the full probe timeout) cannot
// stretch a pass past the probe interval and delay eviction or
// readmission of everyone behind them in the roster.
func (c *Coordinator) probeAll() {
	const maxConcurrentProbes = 8
	sem := make(chan struct{}, maxConcurrentProbes)
	var wg sync.WaitGroup
	for _, m := range c.mem.members {
		select {
		case <-c.stop:
			wg.Wait()
			return
		case sem <- struct{}{}:
		}
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			defer func() { <-sem }()
			c.probeOne(m)
		}(m)
	}
	wg.Wait()
}

// probeOne performs one health probe. The "coordinator.probe" fault
// point fails the probe before any network traffic, so tests can drive
// eviction without a dead server.
func (c *Coordinator) probeOne(m *member) {
	metProbes.Inc()
	if err := faultinject.Hit("coordinator.probe"); err != nil {
		c.mem.probeFailure(m, err)
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), c.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, m.addr+probePath, nil)
	if err != nil {
		c.mem.probeFailure(m, err)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.mem.probeFailure(m, err)
		return
	}
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.mem.probeFailure(m, fmt.Errorf("probe %s%s: status %d", m.addr, probePath, resp.StatusCode))
		return
	}
	c.mem.probeSuccess(m)
}

// Estimate serves a yield request through the worker set: plan, fan
// the sample range out in waves, and merge in index order. Returns an
// error wrapping predint.ErrNotShardable when the request's rung cannot
// be index-partitioned — the caller then runs the local path.
func (c *Coordinator) Estimate(ctx context.Context, req predint.YieldRequest) (predint.YieldResult, error) {
	plan, err := c.plans.Plan(req)
	if err != nil {
		if errors.Is(err, predint.ErrNotShardable) {
			metNotShardable.Inc()
		}
		return predint.YieldResult{}, err
	}
	metRequestsServed.Inc()
	est, err := c.sample(ctx, plan, req)
	if err != nil {
		return predint.YieldResult{}, err
	}
	return plan.Result(est), nil
}

// shardRange is one contiguous piece of the sample-index range.
type shardRange struct {
	idx          int
	start, count int
}

type shardResult struct {
	idx     int
	part    variation.Partial
	shifted bool
	err     error
}

// sample fans the plan's [0, Samples) range out in waves sized to the
// ready member count. After every completed shard the contiguous
// merged prefix is re-folded; when the global stopping rule fires
// inside it, outstanding shards are cancelled — the stopping decision
// stays global and index-ordered even though evaluation is not.
// Evictions, readmissions, retries and hedges mid-run only move where
// shards execute (each shard is a pure function of the request and its
// index range), so the merged estimate is unchanged by any of them.
func (c *Coordinator) sample(ctx context.Context, plan *predint.YieldShardPlan, req predint.YieldRequest) (variation.Estimate, error) {
	total := plan.Samples()
	batch := plan.Batch()
	w := c.mem.readyCount()
	if w < 1 {
		w = 1
	}
	size := c.shardSamples
	if size <= 0 {
		size = (total + 2*w - 1) / (2 * w)
	}
	if size <= 0 {
		size = batch
	}
	if rem := size % batch; rem != 0 {
		size += batch - rem
	}
	var shards []shardRange
	for start := 0; start < total; start += size {
		count := size
		if rem := total - start; rem < count {
			count = rem
		}
		shards = append(shards, shardRange{idx: len(shards), start: start, count: count})
	}

	parts := make([]*variation.Partial, len(shards))
	shiftedSet := false
	shifted := false
	merged := 0 // shards [0, merged) form the folded contiguous prefix
	var prefix []variation.Partial

	for waveStart := 0; waveStart < len(shards); waveStart += w {
		waveEnd := waveStart + w
		if waveEnd > len(shards) {
			waveEnd = len(shards)
		}
		wave := shards[waveStart:waveEnd]
		wctx, cancel := context.WithCancel(ctx)
		results := make(chan shardResult, len(wave))
		for _, s := range wave {
			go func(s shardRange) {
				part, sh, err := c.fetchShard(wctx, plan, req, s)
				results <- shardResult{idx: s.idx, part: part, shifted: sh, err: err}
			}(s)
		}

		var firstErr error
		done := false
		var final variation.Estimate
		for range wave {
			r := <-results
			if done || firstErr != nil {
				continue // draining after cancel
			}
			if r.err != nil {
				firstErr = r.err
				cancel()
				continue
			}
			if !shiftedSet {
				shiftedSet, shifted = true, r.shifted
			} else if r.shifted != shifted {
				firstErr = fmt.Errorf("coordinator: shard %d reports shifted=%v, previous shards said %v", r.idx, r.shifted, shifted)
				cancel()
				continue
			}
			part := r.part
			parts[r.idx] = &part
			grew := false
			for merged < len(parts) && parts[merged] != nil {
				prefix = append(prefix, *parts[merged])
				merged++
				grew = true
			}
			if !grew {
				continue
			}
			est, stop, err := plan.Merge(prefix, shifted)
			if err != nil {
				firstErr = err
				cancel()
				continue
			}
			if stop {
				final, done = est, true
				if merged < len(shards) {
					metStoppedMidWave.Inc()
				}
				cancel()
			}
		}
		cancel()
		if done {
			return final, nil
		}
		if firstErr != nil {
			return variation.Estimate{}, firstErr
		}
	}

	est, stop, err := plan.Merge(prefix, shifted)
	if err != nil {
		return variation.Estimate{}, err
	}
	if !stop {
		return variation.Estimate{}, fmt.Errorf("coordinator: merged %d shards without covering the budget", len(prefix))
	}
	return est, nil
}

// pick selects the next eligible member round-robin from a
// shard-dependent start offset (spreading load), skipping ejected
// members, open breakers, Retry-After windows, and already-tried
// addresses. The "coordinator.breaker" fault point force-trips a
// candidate's breaker in passing, so tests can stage trips without
// manufacturing real failures.
func (c *Coordinator) pick(start int, exclude map[string]bool) *member {
	mems := c.mem.members
	n := len(mems)
	if n == 0 {
		return nil
	}
	now := time.Now()
	for i := 0; i < n; i++ {
		m := mems[((start%n)+n+i)%n]
		if exclude != nil && exclude[m.addr] {
			continue
		}
		if err := faultinject.Hit("coordinator.breaker"); err != nil {
			m.br.trip(now)
			continue
		}
		if m.eligible(now) {
			return m
		}
	}
	return nil
}

// nextEligibleWait reports how long until the soonest Retry-After
// window of a non-ejected member expires — the sleep that lets a
// drained-then-back replica be reused instead of failing the shard
// when it is the only capacity left.
func (c *Coordinator) nextEligibleWait(now time.Time) (time.Duration, bool) {
	var best time.Duration
	found := false
	for _, m := range c.mem.members {
		m.mu.Lock()
		if !m.ejected && m.retryAfterUntil.After(now) {
			if d := m.retryAfterUntil.Sub(now); !found || d < best {
				best, found = d, true
			}
		}
		m.mu.Unlock()
	}
	return best, found
}

// fetchShard obtains one shard: bounded retry across the eligible
// member set (hedging stragglers when configured), a bounded sleep
// when every replica is inside a Retry-After window, then — when the
// set is exhausted — degradation to local execution, so a dead worker
// set degrades the coordinator to a slower single replica rather than
// an outage.
func (c *Coordinator) fetchShard(ctx context.Context, plan *predint.YieldShardPlan, req predint.YieldRequest, s shardRange) (variation.Partial, bool, error) {
	sr := ShardRequest{Op: OpSample, Req: req, Start: s.start, Count: s.count}
	attempts := c.maxAttempts
	if attempts <= 0 {
		attempts = len(c.mem.members)
	}
	tried := map[string]bool{}
	for a := 0; a < attempts; a++ {
		if ctx.Err() != nil {
			return variation.Partial{}, false, ctx.Err()
		}
		m := c.pick(s.idx+a, tried)
		if m == nil {
			// Every replica is ejected, breaker-open, or backing off a
			// 503's Retry-After. When a backoff window is the blocker,
			// honor it: sleep min(window, deadline remaining), then
			// retry the rotation.
			if d, ok := c.nextEligibleWait(time.Now()); ok {
				metRetryAfterWaits.Inc()
				if !sleepCtx(ctx, d) {
					return variation.Partial{}, false, ctx.Err()
				}
				continue
			}
			break
		}
		tried[m.addr] = true
		resp, from, err := c.callHedged(ctx, m, sr, s.idx, tried)
		// The winning leg may be a hedge replica; record it too, so a
		// mismatched response from it is not retried on the same member.
		tried[from.addr] = true
		if err != nil {
			continue
		}
		// A shard of another range, or one collected under another rung
		// (a replica that resolved the request differently), would merge
		// into a wrong answer: charge the member and fetch it elsewhere.
		if resp.Part == nil || resp.Kind != plan.Kind() || resp.Part.Start != s.start || resp.Part.Count != s.count {
			from.fail(time.Now())
			continue
		}
		return *resp.Part, resp.Shifted, nil
	}
	if ctx.Err() != nil {
		return variation.Partial{}, false, ctx.Err()
	}
	// Worker set exhausted for this shard: compute it locally. The
	// result is bit-identical — the shard is a pure function of
	// (request, range) — so degradation costs latency, never accuracy.
	metLocalFallbacks.Inc()
	return plan.CollectCtx(ctx, s.start, s.count)
}

// sleepCtx sleeps d or until ctx is done; true means the full sleep.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// callHedged performs one shard RPC with straggler hedging: the
// primary is dispatched immediately; if it has not answered after
// hedgeAfter, the same shard is re-issued on the next eligible
// replica. The first valid response wins and the loser's request
// context is cancelled — losing work is abandoned, not awaited, so a
// hung replica costs at most the hedge delay instead of the full RPC
// timeout. A fast primary failure returns immediately (retry rotation
// handles failures; hedging is for stragglers).
func (c *Coordinator) callHedged(ctx context.Context, primary *member, sr ShardRequest, shardIdx int, exclude map[string]bool) (ShardResponse, *member, error) {
	if c.hedgeAfter <= 0 {
		resp, err := c.callMember(ctx, primary, sr)
		return resp, primary, err
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser (and any straggler on early error return)

	type reply struct {
		resp ShardResponse
		m    *member
		err  error
	}
	replies := make(chan reply, 2) // buffered: a late loser never blocks its goroutine
	launch := func(m *member) {
		go func() {
			resp, err := c.callMember(cctx, m, sr)
			replies <- reply{resp: resp, m: m, err: err}
		}()
	}
	launch(primary)
	inflight := 1

	timer := time.NewTimer(c.hedgeAfter)
	defer timer.Stop()
	hedged := false
	var firstErr error
	for {
		select {
		case <-timer.C:
			if hedged {
				continue
			}
			hedged = true
			// The "coordinator.hedge" fault point suppresses the hedge
			// dispatch, staging the race where the straggler must still
			// be waited out.
			if err := faultinject.Hit("coordinator.hedge"); err != nil {
				continue
			}
			if h := c.pick(shardIdx+1, exclude); h != nil {
				// Mark the hedge leg as tried immediately (exclude is
				// the caller's tried set, touched only on this
				// goroutine) so later retry attempts skip it.
				exclude[h.addr] = true
				metHedges.Inc()
				launch(h)
				inflight++
			}
		case r := <-replies:
			inflight--
			if r.err == nil {
				if inflight > 0 {
					// The other leg is still running; our deferred
					// cancel reaps it.
					metHedgesCancelled.Inc()
				}
				if hedged && inflight > 0 {
					if r.m == primary {
						metHedgeLosses.Inc()
					} else {
						metHedgeWins.Inc()
					}
				}
				return r.resp, r.m, nil
			}
			if firstErr == nil {
				firstErr = r.err
			}
			if inflight == 0 {
				return ShardResponse{}, primary, firstErr
			}
			// One leg failed, the other is still in flight: wait it out.
		}
	}
}

// callMember performs one shard RPC against a specific member, feeding
// its breaker, metrics, and Retry-After backoff from the outcome. A
// cancellation of ctx (hedge decided, global stop) is never charged to
// the member — but any half-open trial slot the caller claimed via
// eligible()/pick() is released on such no-outcome returns, so a
// cancelled trial cannot leave the breaker permanently claimed.
// The two fault points model the seam: "coordinator.rpc"
// fires before the request leaves (connection-level failure),
// "coordinator.response" truncates the response body (torn read /
// partial response).
func (c *Coordinator) callMember(ctx context.Context, m *member, sr ShardRequest) (ShardResponse, error) {
	if err := faultinject.Hit("coordinator.rpc"); err != nil {
		m.fail(time.Now())
		return ShardResponse{}, err
	}
	sc := c.getScratch()
	sc.enc.Reset()
	if err := json.NewEncoder(&sc.enc).Encode(sr); err != nil {
		c.scratch.Put(sc)
		m.release()
		return ShardResponse{}, err
	}
	sc.body.Reset(sc.enc.Bytes())
	httpReq, err := http.NewRequestWithContext(ctx, http.MethodPost, m.addr+"/v1/internal/shard", &sc.body)
	if err != nil {
		c.scratch.Put(sc)
		m.release()
		return ShardResponse{}, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	start := time.Now()
	httpResp, err := c.client.Do(httpReq)
	if err != nil {
		// The transport may still be draining the request body after a
		// failed or cancelled round trip; drop the scratch instead of
		// risking a reuse of its buffers under an in-flight write.
		if ctx.Err() != nil {
			m.release()
			return ShardResponse{}, ctx.Err()
		}
		m.fail(time.Now())
		return ShardResponse{}, err
	}
	sc.resp.Reset()
	bound := responseBound(sr)
	_, err = sc.resp.ReadFrom(io.LimitReader(httpResp.Body, bound+1))
	httpResp.Body.Close()
	if err == nil && int64(sc.resp.Len()) > bound {
		err = fmt.Errorf("coordinator: worker %s: response over the %d-byte bound", m.addr, bound)
	}
	if err != nil {
		if ctx.Err() != nil {
			m.release()
			return ShardResponse{}, ctx.Err()
		}
		m.fail(time.Now())
		return ShardResponse{}, err
	}
	data := sc.resp.Bytes()
	if ferr := faultinject.Hit("coordinator.response"); ferr != nil {
		data = data[:len(data)/2]
	}
	if httpResp.StatusCode != http.StatusOK {
		if httpResp.StatusCode == http.StatusServiceUnavailable {
			c.noteRetryAfter(ctx, m, httpResp.Header.Get("Retry-After"))
		}
		m.fail(time.Now())
		msg := truncate(data, 200)
		c.scratch.Put(sc)
		return ShardResponse{}, fmt.Errorf("coordinator: worker %s: status %d: %s", m.addr, httpResp.StatusCode, msg)
	}
	// Decode into the scratch targets: the Partial's FailIdx/Weights
	// backing arrays persist across calls, so steady-state waves decode
	// with no slice growth. Start = -1 marks "no part decoded" — a
	// response without one leaves the sentinel in place.
	sc.part = variation.Partial{Start: -1, FailIdx: sc.part.FailIdx[:0], Weights: sc.part.Weights[:0]}
	sc.out = ShardResponse{Part: &sc.part}
	if err := json.Unmarshal(data, &sc.out); err != nil {
		m.fail(time.Now())
		c.scratch.Put(sc)
		return ShardResponse{}, fmt.Errorf("coordinator: worker %s: bad response: %w", m.addr, err)
	}
	out := sc.out
	if p := out.Part; p == &sc.part || p == nil {
		// Detach from the scratch before it is reused: an exact-size
		// clone of a decoded part (the merge holds it across waves), nil
		// when the response carried none. Empty slices normalize to nil,
		// matching the wire form (omitempty) the non-pooled decode
		// produced.
		if p == nil || p.Start < 0 {
			out.Part = nil
		} else {
			cp := variation.Partial{Start: p.Start, Count: p.Count}
			if len(p.FailIdx) > 0 {
				cp.FailIdx = append([]int(nil), p.FailIdx...)
			}
			if len(p.Weights) > 0 {
				cp.Weights = append([]float64(nil), p.Weights...)
			}
			out.Part = &cp
		}
	}
	c.scratch.Put(sc)
	m.ok(time.Since(start))
	return out, nil
}

// A worker's answer is read only up to a bound derived from the request
// it answers, so a misbehaving worker or proxy cannot grow the front's
// memory for the whole RPC timeout. The largest honest answer is the
// worker's compact encoding of a part in which every one of count
// samples fails and carries a weight: per sample one index and one
// weight, each a JSON number of at most 24 bytes followed by a comma.
// Everything else — the envelope, an error message — fits in
// smallResponse.
const (
	smallResponse     = 16 << 10
	failSampleMaxSize = 2 * (24 + 1)
)

func responseBound(sr ShardRequest) int64 {
	return smallResponse + int64(sr.Count)*failSampleMaxSize
}

// noteRetryAfter honors a 503's Retry-After hint: the member is backed
// off for min(hint, deadline remaining) plus up to 10% jitter (so a
// fleet of coordinators does not re-converge on the drained replica in
// the same instant). A 503 without a parsable hint gets a short
// default so the next rotation still prefers other replicas.
func (c *Coordinator) noteRetryAfter(ctx context.Context, m *member, header string) {
	d := 500 * time.Millisecond
	if header != "" {
		if secs, err := strconv.Atoi(strings.TrimSpace(header)); err == nil && secs >= 0 {
			d = time.Duration(secs) * time.Second
		} else if t, err := http.ParseTime(header); err == nil {
			d = time.Until(t)
		}
	}
	if d <= 0 {
		return
	}
	d += rand.N(d/10 + 1)
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < d {
			d = rem
		}
	}
	if d <= 0 {
		return
	}
	m.backoff(time.Now().Add(d))
}

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(b)
}
