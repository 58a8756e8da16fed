package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	predint "repro"
	"repro/internal/coordinator"
	"repro/internal/obs"
)

// Chaos fault modes a replica can be switched into at runtime. Unlike
// faultinject plans (global, last-writer-wins), each gate is an
// independent atomic, so a churner goroutine can flip replicas
// concurrently while requests are in flight.
const (
	chaosOK   int32 = iota
	chaosDead       // refuse everything with 502, instantly
	chaosSlow       // serve correctly, but late
	chaosHung       // accept the connection and never answer
)

// chaosGate wraps a replica's whole handler (shard RPCs and health
// probes alike) with a switchable fault mode.
type chaosGate struct {
	mode atomic.Int32
	next http.Handler
}

func (g *chaosGate) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch g.mode.Load() {
	case chaosDead:
		http.Error(w, "chaos: dead", http.StatusBadGateway)
		return
	case chaosSlow:
		time.Sleep(30 * time.Millisecond)
	case chaosHung:
		// Hold the request open until the client gives up; the handler
		// never runs, so the caller sees a stuck connection, not an
		// error. The body must be drained first: the server only starts
		// the background connection read — which is what cancels
		// r.Context() on client disconnect — once the request body is
		// consumed.
		io.Copy(io.Discard, r.Body)
		select {
		case <-r.Context().Done():
		case <-time.After(10 * time.Second): // safety net for test cleanup
		}
		return
	}
	g.next.ServeHTTP(w, r)
}

// chaosCluster is testCluster with a chaos gate in front of every
// replica.
func chaosCluster(t *testing.T, n int) ([]*chaosGate, []string) {
	t.Helper()
	gates := make([]*chaosGate, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := newServer(8, 64, 1<<20, 30*time.Second, time.Second)
		s.shardFault = fmt.Sprintf("predintd.shard.chaos%d", i)
		g := &chaosGate{next: s.routes()}
		ts := httptest.NewServer(g)
		t.Cleanup(ts.Close)
		gates[i], urls[i] = g, ts.URL
	}
	return gates, urls
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

func statusOf(c *coordinator.Coordinator, addr string) coordinator.WorkerStatus {
	for _, st := range c.WorkersStatus() {
		if st.Addr == addr {
			return st
		}
	}
	return coordinator.WorkerStatus{}
}

// TestReadyzGatesOnFirstProbe pins the front replica's readiness gate:
// with the prober on, /readyz stays 503 until the coordinator has seen
// one live worker, and a configured worker coming up flips it. The
// admin endpoint must meanwhile expose the dead worker as ejected with
// its probe error.
func TestReadyzGatesOnFirstProbe(t *testing.T) {
	// A worker address that refuses connections: bind, then close.
	deadTS := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	deadURL := deadTS.URL
	deadTS.Close()
	// A worker that is down at startup and comes up later.
	gates, lateURLs := chaosCluster(t, 1)
	gates[0].mode.Store(chaosDead)

	coord, err := coordinator.New(coordinator.Config{
		Workers:       []string{deadURL, lateURLs[0]},
		Client:        &http.Client{Timeout: 2 * time.Second},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		EjectAfter:    2,
		ReadmitAfter:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	front := newServer(8, 64, 1<<20, 30*time.Second, time.Second)
	front.coord = coord
	ts := httptest.NewServer(front.routes())
	t.Cleanup(ts.Close)

	getStatus := func(path string) int {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := getStatus("/readyz"); got != http.StatusServiceUnavailable {
		t.Fatalf("readyz before any successful probe: status %d, want 503", got)
	}
	if got := getStatus("/healthz"); got != http.StatusOK {
		t.Fatalf("healthz is liveness, not readiness: status %d, want 200", got)
	}

	// The late worker comes up; the first successful probe of it makes
	// the front replica ready.
	gates[0].mode.Store(chaosOK)
	waitFor(t, 3*time.Second, "readyz to flip after the late worker came up", func() bool {
		return getStatus("/readyz") == http.StatusOK
	})
	waitFor(t, 3*time.Second, "the dead worker to be ejected", func() bool {
		return statusOf(coord, deadURL).State == "ejected"
	})
	if st := statusOf(coord, deadURL); st.LastProbeError == "" {
		t.Errorf("ejected worker carries no probe error: %+v", st)
	}

	// Admin snapshot through the front replica's HTTP surface.
	resp, err := http.Get(ts.URL + "/v1/internal/workers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("workers endpoint: status %d", resp.StatusCode)
	}
	var doc struct {
		Workers []coordinator.WorkerStatus `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workers) != 2 {
		t.Fatalf("workers endpoint listed %d members, want 2: %+v", len(doc.Workers), doc.Workers)
	}
	states := map[string]string{}
	for _, w := range doc.Workers {
		states[w.Addr] = w.State
	}
	if states[deadURL] != "ejected" {
		t.Errorf("dead worker state %q over HTTP, want ejected", states[deadURL])
	}
	if states[lateURLs[0]] != "ready" {
		t.Errorf("late worker state %q over HTTP, want ready", states[lateURLs[0]])
	}
}

// TestWorkerEvictionAndReadmission drives the full health-probe loop
// against a replica that dies and recovers: consecutive probe failures
// evict it (and dispatch stops cold — its request counter freezes),
// consecutive successes readmit it, and the estimates served throughout
// stay bit-identical.
func TestWorkerEvictionAndReadmission(t *testing.T) {
	gates, urls := chaosCluster(t, 3)
	coord, err := coordinator.New(coordinator.Config{
		Workers:       urls,
		Client:        &http.Client{Timeout: 2 * time.Second},
		ShardSamples:  512,
		ProbeInterval: 15 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		EjectAfter:    2,
		ReadmitAfter:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	req := coordReq("mc", 4096)
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	check := func(label string) {
		t.Helper()
		got, err := coord.Estimate(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if got != want {
			t.Fatalf("%s: coordinator %+v != local %+v", label, got, want)
		}
	}
	check("healthy fleet")

	before := obs.Snapshot()
	gates[1].mode.Store(chaosDead)
	waitFor(t, 3*time.Second, "w1 to be ejected", func() bool {
		return statusOf(coord, urls[1]).State == "ejected"
	})

	// While ejected, w1 must receive no shard dispatch at all: its
	// lifetime RPC counter is frozen across several full estimates.
	frozen := statusOf(coord, urls[1]).Requests
	for i := 0; i < 3; i++ {
		check("two-replica fleet")
	}
	if got := statusOf(coord, urls[1]).Requests; got != frozen {
		t.Errorf("ejected worker served %d new requests, want 0", got-frozen)
	}

	gates[1].mode.Store(chaosOK)
	waitFor(t, 3*time.Second, "w1 to be readmitted", func() bool {
		return statusOf(coord, urls[1]).State == "ready"
	})
	check("recovered fleet")

	after := obs.Snapshot()
	for _, counter := range []string{
		"coordinator.ejections",
		"coordinator.readmissions",
		"coordinator.health_probe_failures",
	} {
		if after[counter]-before[counter] == 0 {
			t.Errorf("counter %s did not move across an eviction/readmission cycle", counter)
		}
	}
}

// TestHedgedHungReplica is the straggler bound of the acceptance
// criteria: with one replica accepting connections and never
// answering, a hedged coordinator pays at most the hedge delay per
// wave — not the full RPC timeout — and the merged estimate stays
// bit-identical.
func TestHedgedHungReplica(t *testing.T) {
	gates, urls := chaosCluster(t, 3)
	gates[1].mode.Store(chaosHung)

	const rpcTimeout = 8 * time.Second
	coord, err := coordinator.New(coordinator.Config{
		Workers:      urls,
		Client:       &http.Client{Timeout: rpcTimeout},
		ShardSamples: 512,
		HedgeAfter:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	req := coordReq("mc", 4096) // 8 shards over 3 replicas: 3 waves, each with one hung-primary shard
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Snapshot()
	start := time.Now()
	got, err := coord.Estimate(context.Background(), req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("hedged estimate %+v != local %+v", got, want)
	}
	// Without hedging every hung-primary shard would block for the full
	// 8 s RPC timeout; with it, each costs ~100 ms.
	if elapsed >= rpcTimeout/2 {
		t.Fatalf("hung replica cost %v — hedging did not bound the straggler (RPC timeout %v)", elapsed, rpcTimeout)
	}
	after := obs.Snapshot()
	if after["coordinator.hedges"]-before["coordinator.hedges"] == 0 {
		t.Error("no hedges were issued against a hung replica")
	}
	if after["coordinator.hedge_wins"]-before["coordinator.hedge_wins"] == 0 {
		t.Error("no hedge won against a hung replica")
	}
	if after["coordinator.hedges_cancelled"]-before["coordinator.hedges_cancelled"] == 0 {
		t.Error("no losing leg was cancelled")
	}
}

// TestHedgeLoserNoLeak pins hedge-loser cleanup: every losing leg's
// goroutine (and the hung server handlers it was blocked on) must exit
// once the winner returns, so repeated hedging cannot accumulate
// goroutines.
func TestHedgeLoserNoLeak(t *testing.T) {
	gates, urls := chaosCluster(t, 3)
	gates[1].mode.Store(chaosHung)

	client := &http.Client{Timeout: 8 * time.Second}
	coord, err := coordinator.New(coordinator.Config{
		Workers:      urls,
		Client:       client,
		ShardSamples: 256,
		HedgeAfter:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}

	req := coordReq("mc", 1024)
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		got, err := coord.Estimate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("run %d: estimate %+v != local %+v", i, got, want)
		}
	}
	coord.Close()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		client.CloseIdleConnections()
		if runtime.NumGoroutine() <= base+4 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines grew from %d to %d after three hedged estimates — losing legs leaked", base, runtime.NumGoroutine())
}

// TestRetryAfterHonored pins satellite behavior for 503s: when every
// replica is shedding with a Retry-After hint, the coordinator sleeps
// the hint out (bounded, observable on the retry_after_waits counter)
// instead of hammering the drained fleet, then falls back locally —
// still bit-identical.
func TestRetryAfterHonored(t *testing.T) {
	servers := make([]*server, 2)
	urls := make([]string, 2)
	for i := range servers {
		s := newServer(8, 64, 1<<20, 30*time.Second, 200*time.Millisecond)
		s.draining.Store(true) // everything is shed with 503 + Retry-After
		ts := httptest.NewServer(s.routes())
		t.Cleanup(ts.Close)
		servers[i], urls[i] = s, ts.URL
	}
	coord, err := coordinator.New(coordinator.Config{
		Workers:      urls,
		Client:       &http.Client{Timeout: 2 * time.Second},
		ShardSamples: 1024,
		MaxAttempts:  3,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	req := coordReq("mc", 2048)
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	waits0 := obs.Snapshot()["coordinator.retry_after_waits"]
	start := time.Now()
	got, err := coord.Estimate(context.Background(), req)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("drained-fleet estimate %+v != local %+v", got, want)
	}
	if obs.Snapshot()["coordinator.retry_after_waits"]-waits0 == 0 {
		t.Error("retry_after_waits did not move although every replica was shedding with a hint")
	}
	if elapsed < 150*time.Millisecond {
		t.Errorf("estimate returned in %v — the Retry-After hint (200ms, shed by every replica) was not slept out", elapsed)
	}
}

// TestChaosSoakMembership is the acceptance soak: four replicas are
// randomly killed, slowed, hung, and restored for seconds while the
// prober evicts/readmits, breakers trip, and hedges race — and every
// single estimate served through the churn must be bit-identical to
// the single-process answer, with no request failing.
func TestChaosSoakMembership(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is seconds of wall clock")
	}
	gates, urls := chaosCluster(t, 4)
	coord, err := coordinator.New(coordinator.Config{
		Workers:          urls,
		Client:           &http.Client{Timeout: 500 * time.Millisecond},
		ShardSamples:     256,
		ProbeInterval:    25 * time.Millisecond,
		ProbeTimeout:     100 * time.Millisecond,
		EjectAfter:       2,
		ReadmitAfter:     1,
		BreakerThreshold: 2,
		BreakerCooldown:  50 * time.Millisecond,
		HedgeAfter:       60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	req := coordReq("mc", 2048)
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	stopChurn := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		rng := rand.New(rand.NewPCG(0xC0FFEE, 42))
		// Mostly healthy, with dead, slow, and hung interludes.
		modes := []int32{chaosOK, chaosOK, chaosOK, chaosDead, chaosDead, chaosSlow, chaosSlow, chaosHung}
		for {
			select {
			case <-stopChurn:
				return
			case <-time.After(20 * time.Millisecond):
			}
			gates[rng.IntN(len(gates))].mode.Store(modes[rng.IntN(len(modes))])
		}
	}()

	deadline := time.Now().Add(2500 * time.Millisecond)
	var estimates atomic.Int64
	var clients sync.WaitGroup
	for i := 0; i < 2; i++ {
		clients.Add(1)
		go func(id int) {
			defer clients.Done()
			for time.Now().Before(deadline) {
				got, err := coord.Estimate(context.Background(), req)
				if err != nil {
					t.Errorf("churn client %d: estimate failed: %v", id, err)
					return
				}
				if got != want {
					t.Errorf("churn client %d: estimate %+v != local %+v — churn changed the answer", id, got, want)
					return
				}
				estimates.Add(1)
			}
		}(i)
	}
	clients.Wait()
	close(stopChurn)
	churn.Wait()

	// Restore the fleet; it must recover to a working state.
	for _, g := range gates {
		g.mode.Store(chaosOK)
	}
	got, err := coord.Estimate(context.Background(), req)
	if err != nil {
		t.Fatalf("post-churn estimate: %v", err)
	}
	if got != want {
		t.Fatalf("post-churn estimate %+v != local %+v", got, want)
	}
	if n := estimates.Load(); n < 3 {
		t.Errorf("only %d estimates completed during the soak — churn starved the clients", n)
	}
	t.Logf("chaos soak: %d estimates through churn, all bit-identical", estimates.Load())
}
