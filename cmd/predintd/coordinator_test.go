package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	predint "repro"
	"repro/internal/coordinator"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/surface"
)

// testCluster spins n loopback worker replicas, each a full predintd
// server with its own admission control, optionally its own surface
// cache, and a per-replica fault point ("predintd.shard.wN") so tests
// can fail workers selectively.
func testCluster(t *testing.T, n int, withSurface bool) ([]*server, []string) {
	t.Helper()
	servers := make([]*server, n)
	urls := make([]string, n)
	for i := 0; i < n; i++ {
		s := newServer(8, 64, 1<<20, 30*time.Second, time.Second)
		s.shardFault = fmt.Sprintf("predintd.shard.w%d", i)
		if withSurface {
			s.surf = surface.New(surface.Options{})
		}
		ts := httptest.NewServer(s.routes())
		t.Cleanup(ts.Close)
		servers[i] = s
		urls[i] = ts.URL
	}
	return servers, urls
}

// wrappedWorker serves a real worker replica's routes through wrap and
// returns its URL: a worker that misbehaves in one way while its shard
// route stays predintd's own.
func wrappedWorker(t *testing.T, wrap func(http.Handler) http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(wrap(newServer(8, 64, 1<<20, 30*time.Second, time.Second).routes()))
	t.Cleanup(ts.Close)
	return ts.URL
}

func testCoordinator(t *testing.T, urls []string, shardSamples int) *coordinator.Coordinator {
	t.Helper()
	c, err := coordinator.New(coordinator.Config{
		Workers:      urls,
		ShardSamples: shardSamples,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// coordReq is the canonical distributed request of these tests:
// NoSurface keeps every cache out of the way so only the sharded
// sampling plane is under test.
func coordReq(estimator string, samples int) predint.YieldRequest {
	s := samples
	return predint.YieldRequest{
		Tech:      "90nm",
		LengthMM:  5,
		Samples:   &s,
		Seed:      7,
		Estimator: estimator,
		NoSurface: true,
	}
}

// TestCoordinatorBitIdentity is the acceptance pin of the scale-out
// plane: a yield estimate computed through the coordinator over three
// loopback replicas is bit-identical to the single-process result, for
// every shardable estimator rung and at several shard sizes (one
// shard, batch-aligned, unaligned).
func TestCoordinatorBitIdentity(t *testing.T) {
	_, urls := testCluster(t, 3, false)
	for _, est := range []string{"mc", "isle", "qmc"} {
		t.Run(est, func(t *testing.T) {
			req := coordReq(est, 4096)
			want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			for _, shard := range []int{0, 256, 1000, 4096} {
				coord := testCoordinator(t, urls, shard)
				got, err := coord.Estimate(context.Background(), req)
				if err != nil {
					t.Fatalf("shard=%d: %v", shard, err)
				}
				if got != want {
					t.Fatalf("shard=%d: coordinator %+v != local %+v", shard, got, want)
				}
			}
		})
	}
}

// TestCoordinatorGlobalStop pins the stopping rule staying global: with
// RelErr set, the coordinator's merged fold stops at exactly the sample
// the single-process kernel stops at — the result (including Samples)
// is bit-identical — and outstanding shards past the stop are
// cancelled, observable as the mid-wave-stop counter moving.
func TestCoordinatorGlobalStop(t *testing.T) {
	_, urls := testCluster(t, 3, false)
	relErr := 0.2
	req := coordReq("mc", 16384)
	req.RelErr = &relErr
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want.Samples >= 16384 {
		t.Fatalf("local run burned the whole budget (%d samples) — the test needs a mid-run stop", want.Samples)
	}
	stops0 := obs.Snapshot()["coordinator.stopped_mid_wave"]
	for _, shard := range []int{256, 512, 1024} {
		coord := testCoordinator(t, urls, shard)
		got, err := coord.Estimate(context.Background(), req)
		if err != nil {
			t.Fatalf("shard=%d: %v", shard, err)
		}
		if got != want {
			t.Fatalf("shard=%d: coordinator %+v != local %+v (stop not global)", shard, got, want)
		}
	}
	if got := obs.Snapshot()["coordinator.stopped_mid_wave"] - stops0; got == 0 {
		t.Errorf("stopping rule never fired mid-wave across shard sizes 256/512/1024 — outstanding shards were not cancelled")
	}
}

// TestCoordinatorNotShardable pins the fallback contract for rungs the
// index partition cannot serve: the coordinator refuses with
// predint.ErrNotShardable, and the serving layer transparently runs the
// local path instead.
func TestCoordinatorNotShardable(t *testing.T) {
	_, urls := testCluster(t, 2, false)
	coord := testCoordinator(t, urls, 0)
	req := coordReq("ais", 2048)
	if _, err := coord.Estimate(context.Background(), req); !errors.Is(err, predint.ErrNotShardable) {
		t.Fatalf("AIS through the coordinator: err %v, want ErrNotShardable", err)
	}
	yt := 0.9
	sizing := coordReq("", 2048)
	sizing.YieldTarget = &yt
	if _, err := coord.Estimate(context.Background(), sizing); !errors.Is(err, predint.ErrNotShardable) {
		t.Fatalf("sizing through the coordinator: err %v, want ErrNotShardable", err)
	}

	// End to end: a coordinator-mode server serves the AIS request via
	// its local fallback, transparently.
	front := newServer(8, 64, 1<<20, 30*time.Second, time.Second)
	front.coord = coord
	ts := httptest.NewServer(front.routes())
	t.Cleanup(ts.Close)
	code, _, body := postJSON(t, ts.URL+"/v1/yield",
		`{"tech": "90nm", "length_mm": 5, "samples": 2048, "seed": 7, "estimator": "ais", "no_surface": true}`)
	if code != http.StatusOK {
		t.Fatalf("AIS on a coordinator server: status %d, body %s", code, body)
	}
}

// TestCoordinatorEndToEnd drives the whole serving path: a front
// replica in coordinator mode fans /v1/yield out over three workers and
// must return byte-for-byte the numbers the engine produces locally.
func TestCoordinatorEndToEnd(t *testing.T) {
	_, urls := testCluster(t, 3, false)
	front := newServer(8, 64, 1<<20, 30*time.Second, time.Second)
	front.coord = testCoordinator(t, urls, 512)
	ts := httptest.NewServer(front.routes())
	t.Cleanup(ts.Close)

	req := coordReq("mc", 4096)
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	res := postYield(t, ts.URL, `{"tech": "90nm", "length_mm": 5, "samples": 4096, "seed": 7, "no_surface": true}`)
	if res.FailProb != want.FailProb || res.StdErr != want.StdErr || res.Samples != want.Samples ||
		res.Yield != want.Yield || res.Source != "mc" {
		t.Fatalf("coordinated response %+v != local %+v", res, want)
	}
}

// TestCoordinatorFaultMatrix exercises the RPC seam failure modes:
// connection-level errors, torn responses, worker 503/timeout/panic, a
// worker dying mid-run, and a fully dead worker set. In every case the
// merged estimate must stay bit-identical to the single-process run —
// retries re-fetch shards from other replicas and exhaustion degrades
// to local execution, never to a different answer.
func TestCoordinatorFaultMatrix(t *testing.T) {
	req := coordReq("mc", 4096)
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, coord *coordinator.Coordinator) {
		t.Helper()
		got, err := coord.Estimate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("under faults: coordinator %+v != local %+v", got, want)
		}
	}

	t.Run("rpc-error-retries", func(t *testing.T) {
		_, urls := testCluster(t, 3, false)
		defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
			"coordinator.rpc": {Kind: faultinject.Error, Times: 2},
		}})()
		check(t, testCoordinator(t, urls, 512))
	})

	t.Run("partial-response-retries", func(t *testing.T) {
		_, urls := testCluster(t, 3, false)
		defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
			"coordinator.response": {Kind: faultinject.Error, Times: 2},
		}})()
		check(t, testCoordinator(t, urls, 512))
	})

	t.Run("worker-503-drains-to-peers", func(t *testing.T) {
		servers, urls := testCluster(t, 3, false)
		servers[1].draining.Store(true) // every shard sent to w1 is shed with 503
		check(t, testCoordinator(t, urls, 512))
	})

	t.Run("worker-panic", func(t *testing.T) {
		_, urls := testCluster(t, 3, false)
		defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
			"predintd.shard.w0": {Kind: faultinject.Panic, Times: 2},
		}})()
		check(t, testCoordinator(t, urls, 512))
	})

	t.Run("worker-timeout", func(t *testing.T) {
		_, urls := testCluster(t, 3, false)
		defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
			"predintd.shard.w1": {Kind: faultinject.Delay, Delay: 2 * time.Second, Times: 2},
		}})()
		coord, err := coordinator.New(coordinator.Config{
			Workers:      urls,
			ShardSamples: 512,
			Client:       &http.Client{Timeout: 300 * time.Millisecond},
		})
		if err != nil {
			t.Fatal(err)
		}
		check(t, coord)
	})

	t.Run("worker-killed-mid-run", func(t *testing.T) {
		_, urls := testCluster(t, 3, false)
		// w2 serves its first shard, then every later request to it
		// fails — the mid-run death of a replica. Its remaining shards
		// must be re-fetched from other replicas, bit-identically.
		defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
			"predintd.shard.w2": {Kind: faultinject.Error, After: 1},
		}})()
		check(t, testCoordinator(t, urls, 256))
	})

	t.Run("worker-set-exhausted-degrades-local", func(t *testing.T) {
		_, urls := testCluster(t, 2, false)
		defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
			"predintd.shard.w0": {Kind: faultinject.Error},
			"predintd.shard.w1": {Kind: faultinject.Error},
		}})()
		fallbacks0 := obs.Snapshot()["coordinator.local_fallbacks"]
		check(t, testCoordinator(t, urls, 1024))
		if got := obs.Snapshot()["coordinator.local_fallbacks"] - fallbacks0; got == 0 {
			t.Errorf("dead worker set: local-fallback counter did not move")
		}
	})
}

// TestCoordinatorFrontOwnsItsWarmTier pins where coordinated estimates
// warm up: in the front's own surface, never in a worker's. Two workers
// with surfaces of their own sit behind a front that repeats one
// surface-eligible query. A front with a surface answers the repeat
// from it without a shard; a front without one samples both times and
// returns the same answer twice. Either way no worker's surface holds a
// point, because the shard protocol only samples.
func TestCoordinatorFrontOwnsItsWarmTier(t *testing.T) {
	const body = `{"tech": "90nm", "length_mm": 5, "samples": 2048, "seed": 7, "estimator": "mc", "target_ps": 500}`
	for _, withSurface := range []bool{true, false} {
		workers, urls := testCluster(t, 2, true)
		front := newServer(8, 64, 1<<20, 30*time.Second, time.Second)
		if withSurface {
			front.surf = surface.New(surface.Options{})
		}
		front.coord = testCoordinator(t, urls, 512)
		ts := httptest.NewServer(front.routes())
		t.Cleanup(ts.Close)
		ask := func() (predint.YieldResult, int64) {
			t.Helper()
			shards0 := obs.Snapshot()["coordinator.shards_served"]
			res := postYield(t, ts.URL, body)
			return res, obs.Snapshot()["coordinator.shards_served"] - shards0
		}

		first, shards := ask()
		if first.Source != "mc" || shards != 4 {
			t.Fatalf("front surface %v, cold query: source %q after %d shards, want mc after 4", withSurface, first.Source, shards)
		}
		second, shards := ask()
		switch {
		case withSurface && (second.Source != "surface" || shards != 0):
			t.Errorf("front with a surface, repeat: source %q after %d shards, want surface after 0", second.Source, shards)
		case withSurface && (second.FailProb != first.FailProb || second.StdErr != first.StdErr || second.Samples != first.Samples):
			t.Errorf("front with a surface: warm answer %+v mangled the sampled %+v", second, first)
		case !withSurface && (second != first || shards != 4):
			t.Errorf("front without a surface, repeat: %+v after %d shards, want the first answer %+v after 4", second, shards, first)
		}
		for i, w := range workers {
			if n := w.surf.Stats().Points; n != 0 {
				t.Errorf("front surface %v: worker %d's surface holds %d points, want 0", withSurface, i, n)
			}
		}
	}
}

// TestCoordinatorShardOfAnotherRungRetried pins that a shard answered
// under a rung other than the plan's is refused like a shard of the
// wrong range: one worker collects every sample shard of an mc plan
// under qmc, and the coordinator must charge it, fetch those shards
// again elsewhere, and return exactly the local run's answer.
func TestCoordinatorShardOfAnotherRungRetried(t *testing.T) {
	_, honest := testCluster(t, 1, false)
	liar := wrappedWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			var sr coordinator.ShardRequest
			if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
				http.Error(w, err.Error(), http.StatusBadRequest)
				return
			}
			sr.Req.Estimator = "qmc"
			body, err := json.Marshal(sr)
			if err != nil {
				http.Error(w, err.Error(), http.StatusInternalServerError)
				return
			}
			r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
			h.ServeHTTP(w, r)
		})
	})

	target := 500.0
	req := coordReq("mc", 2048)
	req.TargetPS = &target
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if want.FailProb == 0 {
		t.Fatal("no sample fails at the target; the fixture lost its teeth")
	}
	c := testCoordinator(t, []string{honest[0], liar}, 512)
	defer c.Close()
	got, err := c.Estimate(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("coordinator merged another rung's shard:\n got %+v\nwant %+v", got, want)
	}
	for _, st := range c.WorkersStatus() {
		if st.Addr == liar && st.Errors == 0 {
			t.Errorf("the worker answering under qmc was never charged: %+v", st)
		}
	}
}

// TestCoordinatorOversizedResponseIsMemberFailure pins the bound on
// what the coordinator reads from a worker: a worker that follows a
// valid answer with whitespace far past the bound its request allows is
// charged like a failing worker, its shards are fetched elsewhere or
// computed locally, and the answer is the local run's, bit for bit.
func TestCoordinatorOversizedResponseIsMemberFailure(t *testing.T) {
	streamer := wrappedWorker(t, func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			h.ServeHTTP(w, r)
			pad := bytes.Repeat([]byte(" "), 64<<10)
			for n := 0; n < 8<<20; n += len(pad) {
				if _, err := w.Write(pad); err != nil {
					return // the reader hung up
				}
			}
		})
	})
	_, honest := testCluster(t, 1, false)

	target := 500.0
	req := coordReq("mc", 2048)
	req.TargetPS = &target
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		workers  []string
		fallback bool
	}{
		{"retried elsewhere", []string{honest[0], streamer}, false},
		{"local fallback", []string{streamer}, true},
	} {
		c := testCoordinator(t, tc.workers, 512)
		fallbacks := obs.Snapshot()["coordinator.local_fallbacks"]
		got, err := c.Estimate(context.Background(), req)
		status := c.WorkersStatus()
		c.Close()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != want {
			t.Fatalf("%s: coordinator answer differs from the local run:\n got %+v\nwant %+v", tc.name, got, want)
		}
		for _, st := range status {
			if st.Addr == streamer && st.Errors == 0 {
				t.Errorf("%s: the oversized answers were never charged: %+v", tc.name, st)
			}
		}
		if moved := obs.Snapshot()["coordinator.local_fallbacks"] > fallbacks; moved != tc.fallback {
			t.Errorf("%s: local fallback taken = %v, want %v", tc.name, moved, tc.fallback)
		}
	}
}

// TestCoordinatorPlanMemoCounts pins where the plan memos pay: two
// identical 4-shard ISLE requests through two loopback workers. On the
// first, each worker designs the link for its first-wave shard and
// reuses it for its second-wave one, and the front designs it once; on
// the second every plan is a hit. Both answers are the local one.
func TestCoordinatorPlanMemoCounts(t *testing.T) {
	workers, urls := testCluster(t, 2, false)
	coord := testCoordinator(t, urls, 0) // 2048 samples → four 512-sample shards
	req := coordReq("isle", 2048)
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for i, wantMemo := range []struct{ hits, misses, workerHits, workerMisses int64 }{
		{2, 3, 1, 1},
		{5, 0, 2, 0},
	} {
		snap0 := obs.Snapshot()
		var before [2][2]int64
		for w, s := range workers {
			before[w][0], before[w][1] = s.plans.Stats()
		}
		got, err := coord.Estimate(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("request %d: coordinator %+v != local %+v", i+1, got, want)
		}
		snap := obs.Snapshot()
		hits := snap["predint.plan_memo.hits"] - snap0["predint.plan_memo.hits"]
		misses := snap["predint.plan_memo.misses"] - snap0["predint.plan_memo.misses"]
		if hits != wantMemo.hits || misses != wantMemo.misses {
			t.Errorf("request %d: process-wide %d hits, %d misses; want %d, %d", i+1, hits, misses, wantMemo.hits, wantMemo.misses)
		}
		for w, s := range workers {
			h, m := s.plans.Stats()
			if h-before[w][0] != wantMemo.workerHits || m-before[w][1] != wantMemo.workerMisses {
				t.Errorf("request %d: worker %d %d hits, %d misses; want %d, %d",
					i+1, w, h-before[w][0], m-before[w][1], wantMemo.workerHits, wantMemo.workerMisses)
			}
		}
	}
}

// TestCoordinatorPlanMemoConcurrent runs eight goroutines of mixed link
// classes, rungs and seeds through one front and two workers, so the
// memos see concurrent misses on one key and concurrent first ISLE
// collects on one entry. Every answer must equal the serial local one.
// CI runs it under the race detector ten times.
func TestCoordinatorPlanMemoConcurrent(t *testing.T) {
	_, urls := testCluster(t, 2, false)
	coord := testCoordinator(t, urls, 128)
	var reqs []predint.YieldRequest
	for _, link := range []struct {
		tech   string
		length float64
	}{{"90nm", 5}, {"65nm", 3}} {
		for _, est := range []string{"mc", "isle", "qmc"} {
			for seed := uint64(1); seed <= 2; seed++ {
				req := coordReq(est, 512)
				req.Tech, req.LengthMM, req.Seed, req.Workers = link.tech, link.length, seed, 1
				reqs = append(reqs, req)
			}
		}
	}
	want := make([]predint.YieldResult, len(reqs))
	for i, req := range reqs {
		var err error
		if want[i], err = (predint.Surfaced{}).LinkYieldCtx(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range reqs {
				i := (k + g) % len(reqs) // each goroutine starts on its own class
				got, err := coord.Estimate(context.Background(), reqs[i])
				if err != nil {
					t.Errorf("goroutine %d, request %d: %v", g, i, err)
					return
				}
				if got != want[i] {
					t.Errorf("goroutine %d, request %d: coordinator %+v != serial %+v", g, i, got, want[i])
				}
			}
		}(g)
	}
	wg.Wait()
}
