package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	predint "repro"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/surface"
)

// testServer wires routes() into an httptest server with generous
// limits (individual tests tighten what they exercise).
func testServer(t *testing.T, inflight, queue, maxYieldCost int, reqTimeout time.Duration) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(inflight, queue, maxYieldCost, reqTimeout, time.Second)
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestBadRequestBodies(t *testing.T) {
	_, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	for name, body := range map[string]string{
		"malformed":     `{"tech": "90nm",`,
		"unknown-field": `{"tech": "90nm", "length_mm": 5, "lenght": 3}`,
		"trailing":      `{"tech": "90nm", "length_mm": 5} extra`,
		"validation":    `{"tech": "13nm", "length_mm": 5}`,
		"zero-length":   `{"tech": "90nm"}`,
	} {
		code, _, resp := postJSON(t, ts.URL+"/v1/link", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, code, resp)
		}
		var doc map[string]string
		if err := json.Unmarshal(resp, &doc); err != nil || doc["error"] == "" {
			t.Errorf("%s: error body malformed: %s", name, resp)
		}
	}
}

// TestTrailingDataRejected pins that a body must end with its JSON
// document on every POST route: a stray '}' or ']' after it, or a second
// document, is a 400 like any other trailing bytes, while trailing
// whitespace is not.
func TestTrailingDataRejected(t *testing.T) {
	s, ts := testServer(t, 4, 16, 1<<20, 30*time.Second)
	s.surf = surface.New(surface.Options{})
	docs := map[string]string{
		"/v1/link":           `{"tech": "90nm", "length_mm": 5}`,
		"/v1/yield":          `{"tech": "90nm", "length_mm": 5, "samples": 64}`,
		"/v1/yield/batch":    `{"tech": "90nm", "length_mm": 5, "samples": 64, "candidates": [{"repeater_size": 8, "repeaters": 10}]}`,
		"/v1/noc":            `{"case": "VPROC", "tech": "90nm"}`,
		"/v1/internal/shard": `{"op": "sample", "req": {"tech": "90nm", "length_mm": 5, "samples": 64}, "start": 0, "count": 64}`,
	}
	for path, doc := range docs {
		if code, _, resp := postJSON(t, ts.URL+path, doc+"\n \t"); code != http.StatusOK {
			t.Errorf("%s with trailing whitespace: status %d, want 200 (body %s)", path, code, resp)
		}
		for _, tail := range []string{"}garbage{", "]", "}", " x", ` {"tech": "90nm"}`, " 5"} {
			code, _, resp := postJSON(t, ts.URL+path, doc+tail)
			if code != http.StatusBadRequest || !strings.Contains(string(resp), "trailing data") {
				t.Errorf("%s followed by %q: status %d, want a 400 naming trailing data (body %s)", path, tail, code, resp)
			}
		}
	}
}

func TestTimeoutParam(t *testing.T) {
	_, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	if code, _, _ := postJSON(t, ts.URL+"/v1/yield?timeout=bogus", `{"tech": "90nm", "length_mm": 5}`); code != http.StatusBadRequest {
		t.Errorf("invalid timeout param: status %d, want 400", code)
	}
	if code, _, _ := postJSON(t, ts.URL+"/v1/yield?timeout=-1s", `{"tech": "90nm", "length_mm": 5}`); code != http.StatusBadRequest {
		t.Errorf("negative timeout param: status %d, want 400", code)
	}
	// A 1ms deadline cannot cover a large Monte Carlo run: the engine
	// returns context.DeadlineExceeded at a batch boundary and the
	// server maps it to 504.
	code, _, body := postJSON(t, ts.URL+"/v1/yield?timeout=1ms",
		`{"tech": "90nm", "length_mm": 5, "samples": 1048576, "workers": 1}`)
	if code != http.StatusGatewayTimeout {
		t.Errorf("expired deadline: status %d, want 504 (body %s)", code, body)
	}
}

func TestInjectedFaultMapsTo500(t *testing.T) {
	_, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"predintd.handle": {Kind: faultinject.Error, Times: 1},
	}})()
	code, _, body := postJSON(t, ts.URL+"/v1/link", `{"tech": "90nm", "length_mm": 5}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("injected fault: status %d, want 500 (body %s)", code, body)
	}
	if !strings.Contains(string(body), "injected") {
		t.Errorf("error body does not name the injected fault: %s", body)
	}
	// The budget is spent; the server recovered.
	if code, _, _ := postJSON(t, ts.URL+"/v1/link", `{"tech": "90nm", "length_mm": 5}`); code != http.StatusOK {
		t.Errorf("request after injected fault: status %d, want 200", code)
	}
}

func TestInjectedPanicContained(t *testing.T) {
	_, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"predintd.handle": {Kind: faultinject.Panic, Times: 1},
	}})()
	code, _, body := postJSON(t, ts.URL+"/v1/link", `{"tech": "90nm", "length_mm": 5}`)
	if code != http.StatusInternalServerError {
		t.Fatalf("injected panic: status %d, want 500 (body %s)", code, body)
	}
	if !strings.Contains(string(body), "panic") {
		t.Errorf("error body does not mention the panic: %s", body)
	}
	// The slot was released on the way out: the server still serves,
	// and a full in-flight complement is available.
	for i := 0; i < 5; i++ {
		if code, _, _ := postJSON(t, ts.URL+"/v1/link", `{"tech": "90nm", "length_mm": 5}`); code != http.StatusOK {
			t.Fatalf("request %d after contained panic: status %d", i, code)
		}
	}
}

// TestQueuePressureDegradesYield: a yield request admitted while
// another request holds the only slot sees pressure and is served the
// nominal estimate even though its sample budget is affordable.
func TestQueuePressureDegradesYield(t *testing.T) {
	_, ts := testServer(t, 1, 8, 1<<20, 10*time.Second)
	defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"predintd.handle": {Kind: faultinject.Delay, Delay: 400 * time.Millisecond, Times: 1},
	}})()
	slow := make(chan int, 1)
	go func() {
		code, _, _ := postJSON(t, ts.URL+"/v1/link", `{"tech": "90nm", "length_mm": 5}`)
		slow <- code
	}()
	time.Sleep(100 * time.Millisecond) // slow request holds the slot
	code, _, body := postJSON(t, ts.URL+"/v1/yield", `{"tech": "90nm", "length_mm": 5, "samples": 64}`)
	if code != http.StatusOK {
		t.Fatalf("pressured yield: status %d, body %s", code, body)
	}
	var res predint.YieldResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Degraded {
		t.Errorf("yield under queue pressure not degraded: %+v", res)
	}
	if got := <-slow; got != http.StatusOK {
		t.Errorf("slot-holding request: status %d", got)
	}
}

func TestYieldBatchEndpoint(t *testing.T) {
	_, ts := testServer(t, 4, 16, 1<<20, 30*time.Second)
	code, _, body := postJSON(t, ts.URL+"/v1/yield/batch",
		`{"tech": "90nm", "length_mm": 5, "samples": 512, "seed": 1, "target_ps": 520,
		  "candidates": [{"repeater_size": 8, "repeaters": 10}, {"repeater_size": 12, "repeaters": 8}]}`)
	if code != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", code, body)
	}
	var res predint.YieldBatchResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Target <= 0 || len(res.Results) != 2 {
		t.Fatalf("degenerate batch result: %+v", res)
	}
	for c, r := range res.Results {
		if r.Samples != 512 || r.NominalDelay <= 0 || r.Yield < 0 || r.Yield > 1 {
			t.Errorf("candidate %d degenerate: %+v", c, r)
		}
		if r.Degraded {
			t.Errorf("candidate %d degraded on an affordable budget: %+v", c, r)
		}
	}
	if res.Results[0].RepeaterSize != 8 || res.Results[1].RepeaterSize != 12 {
		t.Errorf("results out of request order: %+v", res.Results)
	}
}

func TestYieldBatchBadRequests(t *testing.T) {
	_, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	for name, body := range map[string]string{
		"yield-target":  `{"tech": "90nm", "length_mm": 5, "yield_target": 0.95, "candidates": [{"repeater_size": 8, "repeaters": 10}]}`,
		"no-candidates": `{"tech": "90nm", "length_mm": 5}`,
		"bad-candidate": `{"tech": "90nm", "length_mm": 5, "candidates": [{"repeater_size": -1, "repeaters": 10}]}`,
		"unknown-field": `{"tech": "90nm", "length_mm": 5, "candidtaes": [{"repeater_size": 8, "repeaters": 10}]}`,
	} {
		code, _, resp := postJSON(t, ts.URL+"/v1/yield/batch", body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, code, resp)
		}
	}
}

// TestRemovedYieldFieldsRejected pins that the retired "sampler" and
// "importance_sampling" inputs get a 400 on both yield endpoints
// (decodeBody disallows unknown fields) instead of being silently
// accepted and ignored. The same bodies without the field are served.
func TestRemovedYieldFieldsRejected(t *testing.T) {
	_, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	bodies := map[string]string{
		"/v1/yield":       `{"tech": "90nm", "length_mm": 5, "samples": 64%s}`,
		"/v1/yield/batch": `{"tech": "90nm", "length_mm": 5, "samples": 64, "candidates": [{"repeater_size": 8, "repeaters": 10}]%s}`,
	}
	for path, body := range bodies {
		if code, _, resp := postJSON(t, ts.URL+path, fmt.Sprintf(body, "")); code != http.StatusOK {
			t.Fatalf("%s control: status %d, want 200 (body %s)", path, code, resp)
		}
		for _, field := range []string{"sampler", "importance_sampling"} {
			extra := `, "sampler": "box-muller"`
			if field == "importance_sampling" {
				extra = `, "importance_sampling": true`
			}
			code, _, resp := postJSON(t, ts.URL+path, fmt.Sprintf(body, extra))
			if code != http.StatusBadRequest || !strings.Contains(string(resp), field) {
				t.Errorf("%s with %q: status %d, want a 400 naming the field (body %s)", path, field, code, resp)
			}
		}
	}
}

// TestYieldBatchDegradesOverCostCeiling: a batch whose sample budget
// exceeds the server's ceiling is served the closed-form nominal
// evaluation for every candidate, marked degraded.
func TestYieldBatchDegradesOverCostCeiling(t *testing.T) {
	_, ts := testServer(t, 4, 16, 256, 10*time.Second)
	code, _, body := postJSON(t, ts.URL+"/v1/yield/batch",
		`{"tech": "90nm", "length_mm": 5, "samples": 1024,
		  "candidates": [{"repeater_size": 60, "repeaters": 2}, {"repeater_size": 4, "repeaters": 1}]}`)
	if code != http.StatusOK {
		t.Fatalf("batch over ceiling: status %d, body %s", code, body)
	}
	var res predint.YieldBatchResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	for c, r := range res.Results {
		if !r.Degraded || r.Samples != 1 || r.FailProbBound != 1 {
			t.Errorf("candidate %d not degraded: %+v", c, r)
		}
	}
}

// TestHealthzReadyz pins the liveness/readiness split: /healthz is
// pure process liveness and stays 200 even while draining — only
// /readyz (what load balancers should watch) flips to 503, so a drain
// stops traffic without the orchestrator killing a healthy process.
func TestHealthzReadyz(t *testing.T) {
	s, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("healthy %s: status %d", path, resp.StatusCode)
		}
	}
	s.draining.Store(true)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("draining liveness: status %d, want 200", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "draining") {
		t.Fatalf("draining readiness: status %d, body %s", resp.StatusCode, body)
	}
	// Admission refuses outright while draining.
	code, hdr, _ := postJSON(t, ts.URL+"/v1/link", `{"tech": "90nm", "length_mm": 5}`)
	if code != http.StatusServiceUnavailable || hdr.Get("Retry-After") == "" {
		t.Fatalf("draining admission: status %d, Retry-After %q", code, hdr.Get("Retry-After"))
	}
}

// TestBodyCap413 pins the request-body bound on a public endpoint and
// on the shard route: a body over -max-body is refused with 413 before
// it is buffered.
func TestBodyCap413(t *testing.T) {
	s, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	s.maxBody = 4096
	pad := strings.Repeat("x", 8192)
	for _, tc := range []struct{ name, path, body string }{
		{"link", "/v1/link", `{"tech": "90nm", "length_mm": 5, "pad": "` + pad + `"}`},
		{"shard", "/v1/internal/shard", `{"op": "sample", "pad": "` + pad + `"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, _, body := postJSON(t, ts.URL+tc.path, tc.body)
			if code != http.StatusRequestEntityTooLarge {
				t.Fatalf("oversized body on %s: status %d, body %s, want 413", tc.path, code, body)
			}
		})
	}
	// At the cap boundary normal requests still work.
	code, _, body := postJSON(t, ts.URL+"/v1/link", `{"tech": "90nm", "length_mm": 5}`)
	if code != http.StatusOK {
		t.Fatalf("normal body after cap change: status %d, body %s", code, body)
	}
}

// TestWorkersEndpointWithoutCoordinator: the membership admin endpoint
// 404s when the replica is not running in coordinator mode.
func TestWorkersEndpointWithoutCoordinator(t *testing.T) {
	_, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	resp, err := http.Get(ts.URL + "/v1/internal/workers")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("workers without coordinator: status %d, want 404", resp.StatusCode)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	resp, err := http.Get(ts.URL + "/v1/link")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET on a POST route: status %d, want 405", resp.StatusCode)
	}
}

func TestNoCEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("NoC synthesis is seconds of work")
	}
	_, ts := testServer(t, 4, 16, 1<<20, 60*time.Second)
	code, _, body := postJSON(t, ts.URL+"/v1/noc", `{"case": "VPROC", "tech": "90nm"}`)
	if code != http.StatusOK {
		t.Fatalf("noc: status %d, body %s", code, body)
	}
	var res nocResultDTO
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Links <= 0 || res.Routers <= 0 || res.PowerW <= 0 {
		t.Fatalf("degenerate noc result: %+v", res)
	}
}

// TestNoCSimulateTrafficRejected pins that a body with the retired
// "simulate_traffic" key gets a 400 naming the field before any
// synthesis runs: /v1/noc never served the simulation it asked for.
func TestNoCSimulateTrafficRejected(t *testing.T) {
	_, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	code, _, body := postJSON(t, ts.URL+"/v1/noc", `{"case": "DVOPD", "tech": "90nm", "simulate_traffic": true}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), `unknown field \"simulate_traffic\"`) {
		t.Fatalf("simulate_traffic: status %d, want a 400 naming the field (body %s)", code, body)
	}
}

// TestSizingPlanMemoCounters posts one sizing body whose nominal design
// misses twice. The first designs the link class and builds its sizing
// grid; the second reads both from the server's plan memo, moving
// predint.plan_memo.grid_hits by 1 and grid_misses by 0. Both answers
// are the uncached path's.
func TestSizingPlanMemoCounters(t *testing.T) {
	_, ts := testServer(t, 4, 16, 1<<20, 10*time.Second)
	nom, err := predint.LinkYieldNominalCtx(context.Background(), predint.YieldRequest{Tech: "90nm", LengthMM: 5})
	if err != nil {
		t.Fatal(err)
	}
	req := predint.YieldRequest{
		Tech: "90nm", LengthMM: 5, TargetPS: predint.Float(nom.NominalDelay * 1.19e12),
		Samples: predint.Int(1024), Seed: 1, YieldTarget: predint.Float(0.999),
	}
	want, err := predint.Surfaced{}.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Resized {
		t.Fatal("the nominal design passes; the fixture lost its teeth")
	}
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"class_hits", "class_misses", "grid_hits", "grid_misses"}
	for i, moves := range [][4]int64{{0, 1, 0, 1}, {1, 0, 1, 0}} {
		before := obs.Snapshot()
		code, _, resp := postJSON(t, ts.URL+"/v1/yield", string(body))
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i+1, code, resp)
		}
		var got predint.YieldResult
		if err := json.Unmarshal(resp, &got); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("request %d: served %+v, uncached %+v", i+1, got, want)
		}
		after := obs.Snapshot()
		for j, name := range names {
			key := "predint.plan_memo." + name
			if d := after[key] - before[key]; d != moves[j] {
				t.Errorf("request %d: %s moved by %d, want %d", i+1, key, d, moves[j])
			}
		}
	}
}
