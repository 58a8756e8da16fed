package main

import (
	"errors"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
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
