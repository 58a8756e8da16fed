package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	predint "repro"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/pool"
)

// TestQueueFullShedRestoresDepthGauge pins the gauge fix on the
// queue-full shed path: the request bumps queued (and the gauge) at
// admission, is shed because the queue is full, and must leave the
// gauge back at the true depth. It used to decrement only the atomic
// counter, leaving predintd.queue_depth stuck one high after every
// shed — a dashboard that never drains.
func TestQueueFullShedRestoresDepthGauge(t *testing.T) {
	// Queue depth 0: the very first request overflows the queue and is
	// shed deterministically, no concurrent slot-holder needed.
	_, ts := testServer(t, 1, 0, 1<<20, 10*time.Second)
	before := metQueueDepth.Value()
	code, _, body := postJSON(t, ts.URL+"/v1/link", `{"tech": "90nm", "length_mm": 5}`)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("zero-depth queue admission: status %d, want 503 (body %s)", code, body)
	}
	if got := metQueueDepth.Value(); got != before {
		t.Fatalf("queue_depth gauge %d after shed, want %d (gauge leaked on the shed path)", got, before)
	}
}

// TestQueuedDeadlineShedSemantics pins the shed-path unification: a
// request whose deadline expires while waiting in the admission queue
// is turned away by load exactly like a queue-full shed, so it must
// return its 504 WITH a Retry-After hint and move the shed metric.
// It used to write the 504 directly, bypassing shed(): load-based
// clients backed off on queue-full 503s but hammered straight through
// deadline sheds, and the shed metric under-counted overload.
func TestQueuedDeadlineShedSemantics(t *testing.T) {
	// One slot, room in the queue: the victim is admitted, then waits
	// for the slot until its (tightened) deadline expires.
	_, ts := testServer(t, 1, 8, 1<<20, 10*time.Second)
	defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"predintd.handle": {Kind: faultinject.Delay, Delay: 500 * time.Millisecond, Times: 1},
	}})()
	slow := make(chan int, 1)
	go func() {
		code, _, _ := postJSON(t, ts.URL+"/v1/link", `{"tech": "90nm", "length_mm": 5}`)
		slow <- code
	}()
	time.Sleep(100 * time.Millisecond) // the slow request reaches the handler and holds the slot

	shedBefore := metShed.Value()
	code, hdr, body := postJSON(t, ts.URL+"/v1/link?timeout=100ms", `{"tech": "90nm", "length_mm": 5}`)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("queued past deadline: status %d, want 504 (body %s)", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Errorf("queued-deadline shed carries no Retry-After header — clients cannot back off")
	}
	if got := metShed.Value() - shedBefore; got != 1 {
		t.Errorf("shed metric moved by %d on a queued-deadline shed, want 1", got)
	}
	if got := <-slow; got != http.StatusOK {
		t.Fatalf("slot-holding request: status %d", got)
	}
}

// TestStatusForClassifiesWorkerPanics pins the status-mapping fix: a
// recovered worker panic (*pool.PanicError) is a server fault and maps
// to 500, not the catch-all 400 that blamed the client for an engine
// crash.
func TestStatusForClassifiesWorkerPanics(t *testing.T) {
	pe := &pool.PanicError{Index: 3, Value: "boom"}
	if got := statusFor(pe); got != http.StatusInternalServerError {
		t.Errorf("bare PanicError: status %d, want 500", got)
	}
	if got := statusFor(fmt.Errorf("variation: sweep failed: %w", pe)); got != http.StatusInternalServerError {
		t.Errorf("wrapped PanicError: status %d, want 500", got)
	}
	// The catch-all stays: ordinary engine errors are still request
	// validation.
	if got := statusFor(errors.New("bad tech")); got != http.StatusBadRequest {
		t.Errorf("plain error: status %d, want 400", got)
	}
}

// TestWorkerPanicMapsTo500EndToEnd drives the same classification
// through the full serving path: a panic injected into a Monte Carlo
// worker item surfaces from the engine as a *PanicError and the
// response is a 500, with the server intact afterwards.
func TestWorkerPanicMapsTo500EndToEnd(t *testing.T) {
	_, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"pool.item": {Kind: faultinject.Panic, Times: 1},
	}})()
	code, _, body := postJSON(t, ts.URL+"/v1/yield", `{"tech": "90nm", "length_mm": 5, "samples": 256, "workers": 2}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("worker panic: status %d, want 500 (body %s)", code, body)
	}
	if code, _, _ := postJSON(t, ts.URL+"/v1/yield", `{"tech": "90nm", "length_mm": 5, "samples": 256, "workers": 2}`); code != http.StatusOK {
		t.Errorf("request after worker panic: status %d, want 200", code)
	}
}

// TestShardOverCostCeilingRefused: /v1/internal/shard honours
// -max-yield-cost as /v1/yield does. A shard one sample over the
// ceiling is a 400 naming it, whatever its body would have cost, and a
// shard of exactly the ceiling is served.
func TestShardOverCostCeilingRefused(t *testing.T) {
	const ceiling = 64
	_, ts := testServer(t, 4, 16, ceiling, 10*time.Second)
	shard := func(count int) string {
		return fmt.Sprintf(`{"op": "sample", "req": {"tech": "90nm", "length_mm": 5, "samples": 4096, "target_ps": 1}, "start": 0, "count": %d}`, count)
	}
	code, _, body := postJSON(t, ts.URL+"/v1/internal/shard", shard(ceiling+1))
	if code != http.StatusBadRequest || !strings.Contains(string(body), "64-sample cost ceiling") {
		t.Fatalf("shard over the ceiling: status %d, body %s; want a 400 naming the ceiling", code, body)
	}
	if code, _, body := postJSON(t, ts.URL+"/v1/internal/shard", shard(ceiling)); code != http.StatusOK {
		t.Fatalf("shard at the ceiling: status %d, body %s; want 200", code, body)
	}
}

// TestBatchRepeaterCountBounded: /v1/yield/batch refuses a candidate
// with more repeaters than the buffering search's own bound
// (buffering.MaxN, 64) with a 400 naming it, on the degraded path past
// the cost ceiling and on the sampling path alike, and serves 64.
// Evaluating a line walks every stage, so an unbounded count ran for
// seconds with no context check. Each request gets a few seconds to
// answer.
func TestBatchRepeaterCountBounded(t *testing.T) {
	batch := func(repeaters int64, samples int) string {
		return fmt.Sprintf(`{"tech": "90nm", "length_mm": 5, "samples": %d, "candidates": [{"repeater_size": 8, "repeaters": %d}]}`, samples, repeaters)
	}
	for _, c := range []struct {
		name    string
		ceiling int
		body    string
		status  int
	}{
		{"degraded, 1e12 repeaters", 0, batch(1e12, 4096), http.StatusBadRequest},
		{"degraded, 65 repeaters", 0, batch(65, 4096), http.StatusBadRequest},
		{"degraded, 64 repeaters", 0, batch(64, 4096), http.StatusOK},
		{"sampled, 1e7 repeaters", 1 << 20, batch(1e7, 512), http.StatusBadRequest},
		{"sampled, 64 repeaters", 1 << 20, batch(64, 512), http.StatusOK},
	} {
		h := newServer(4, 16, c.ceiling, time.Minute, time.Second).routes()
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/yield/batch", strings.NewReader(c.body)))
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: no answer within 5 s", c.name)
		}
		if rec.Code != c.status {
			t.Fatalf("%s: status %d, want %d: %s", c.name, rec.Code, c.status, rec.Body)
		}
		if c.status == http.StatusBadRequest && !strings.Contains(rec.Body.String(), "over the bound of 64 (buffering.MaxN)") {
			t.Errorf("%s: the refusal does not name the bound: %s", c.name, rec.Body)
		}
	}
}

// TestBatchCostCountsCandidates: a /v1/yield/batch request costs its
// samples times its candidates, the candidate-samples the shared kernel
// evaluates. At a 4 096 ceiling a 512-sample batch of 9 candidates
// (4 608) gets the nominal answers and one of 8 (4 096) samples. Only
// the samples counted before, so any number of candidates sampled in
// full.
func TestBatchCostCountsCandidates(t *testing.T) {
	_, ts := testServer(t, 4, 16, 4096, time.Minute)
	for _, c := range []struct {
		candidates int
		degraded   bool
	}{{9, true}, {8, false}} {
		req := predint.YieldBatchRequest{YieldRequest: predint.YieldRequest{Tech: "90nm", LengthMM: 5, TargetPS: predint.Float(520), Samples: predint.Int(512), Seed: 1}}
		for i := 0; i < c.candidates; i++ {
			req.Candidates = append(req.Candidates, predint.YieldCandidate{RepeaterSize: float64(8 + 4*i), Repeaters: 2 + i%4})
		}
		want, err := predint.Surfaced{}.LinkYieldBatchCtx(context.Background(), req)
		if c.degraded {
			want, err = predint.LinkYieldBatchNominalCtx(context.Background(), req)
		}
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		degraded0 := obs.Snapshot()["predintd.degraded"]
		code, _, resp := postJSON(t, ts.URL+"/v1/yield/batch", string(body))
		if code != http.StatusOK {
			t.Fatalf("%d candidates: status %d: %s", c.candidates, code, resp)
		}
		var got predint.YieldBatchResult
		if err := json.Unmarshal(resp, &got); err != nil {
			t.Fatal(err)
		}
		if moved := obs.Snapshot()["predintd.degraded"] > degraded0; moved != c.degraded {
			t.Errorf("%d candidates: predintd.degraded moved=%v, want %v", c.candidates, moved, c.degraded)
		}
		if len(got.Results) != len(want.Results) || got.Target != want.Target {
			t.Fatalf("%d candidates: served %+v, want %+v", c.candidates, got, want)
		}
		for i := range got.Results {
			if got.Results[i] != want.Results[i] {
				t.Errorf("%d candidates, candidate %d: served %+v, want %+v", c.candidates, i, got.Results[i], want.Results[i])
				break
			}
		}
	}
}
