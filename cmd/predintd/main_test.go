package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	predint "repro"
	"repro/internal/faultinject"
)

// syncBuf is a goroutine-safe writer: run() logs to it from the server
// goroutine while the test polls it for the bound address.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// startServer launches run() in a goroutine and waits for the
// "listening on" line, returning the base URL and the channel run's
// error will arrive on.
func startServer(t *testing.T, stderr *syncBuf, args ...string) (string, chan error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- run(args, io.Discard, stderr) }()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if out := stderr.String(); strings.Contains(out, "listening on http://") {
			line := out[strings.Index(out, "listening on http://")+len("listening on "):]
			return "http://" + strings.TrimSpace(strings.TrimPrefix(strings.SplitN(line, "\n", 2)[0], "http://")), done
		}
		select {
		case err := <-done:
			t.Fatalf("server exited before binding: %v\nstderr: %s", err, stderr.String())
		case <-time.After(5 * time.Millisecond):
		}
	}
	t.Fatalf("server never reported its address; stderr: %s", stderr.String())
	return "", nil
}

func postJSON(t *testing.T, url, body string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("POST %s: reading body: %v", url, err)
	}
	return resp.StatusCode, resp.Header, b
}

// TestServerEndToEnd is the acceptance test for the hardened serving
// layer, run with -race in CI. One server instance goes through three
// phases: (a) saturation — the admission queue fills and excess
// requests are shed with 503 + Retry-After; (b) degradation — a
// /v1/yield request over the cost ceiling is answered with the marked
// closed-form nominal estimate, bit-identical to LinkYieldNominalCtx
// (model.ScaledFor at the nominal corner); (c) drain — SIGTERM
// finishes the in-flight request with a complete response, rejects new
// work, and run() exits nil.
func TestServerEndToEnd(t *testing.T) {
	var stderr syncBuf
	base, done := startServer(t, &stderr,
		"-addr", "127.0.0.1:0",
		"-inflight", "1",
		"-queue", "2",
		"-max-yield-cost", "512",
		"-request-timeout", "30s",
		"-drain-timeout", "15s",
	)

	linkBody := `{"tech": "90nm", "length_mm": 5}`

	// Warm the calibration cache so phase timings measure the serving
	// layer, not the first-request model calibration.
	if code, _, body := postJSON(t, base+"/v1/link", linkBody); code != http.StatusOK {
		t.Fatalf("warmup link request: status %d, body %s", code, body)
	}

	// ---- Phase a: saturation sheds with 503 + Retry-After ----
	restore := faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"predintd.handle": {Kind: faultinject.Delay, Delay: 300 * time.Millisecond},
	}})
	const burst = 8
	codes := make([]int, burst)
	headers := make([]http.Header, burst)
	var wg sync.WaitGroup
	wg.Add(burst)
	for i := 0; i < burst; i++ {
		go func(i int) {
			defer wg.Done()
			codes[i], headers[i], _ = postJSON(t, base+"/v1/link", linkBody)
		}(i)
	}
	wg.Wait()
	restore()
	served, shed := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			served++
		case http.StatusServiceUnavailable:
			shed++
			if headers[i].Get("Retry-After") == "" {
				t.Errorf("shed response %d lacks a Retry-After header", i)
			}
		default:
			t.Errorf("burst request %d: unexpected status %d", i, code)
		}
	}
	// inflight=1 + queue=2 bounds concurrent admissions to 3; a burst
	// of 8 simultaneous requests must shed at least a few and still
	// serve at least the one holding the slot.
	if served == 0 || shed == 0 {
		t.Fatalf("saturation burst: %d served / %d shed, want both non-zero", served, shed)
	}

	// ---- Phase b: over-budget yield degrades to the nominal estimate ----
	yieldReq := predint.YieldRequest{Tech: "90nm", LengthMM: 5, Samples: predint.Int(4096), Seed: 7}
	code, _, body := postJSON(t, base+"/v1/yield", `{"tech": "90nm", "length_mm": 5, "samples": 4096, "seed": 7}`)
	if code != http.StatusOK {
		t.Fatalf("degraded yield request: status %d, body %s", code, body)
	}
	var deg predint.YieldResult
	if err := json.Unmarshal(body, &deg); err != nil {
		t.Fatalf("degraded yield response not JSON: %v\n%s", err, body)
	}
	if !deg.Degraded {
		t.Fatalf("4096-sample request over a 512 cost ceiling not degraded: %+v", deg)
	}
	if deg.Samples != 1 || deg.FailProbBound != 1 {
		t.Errorf("degraded contract violated: samples=%d bound=%g, want 1 and 1", deg.Samples, deg.FailProbBound)
	}
	want, err := predint.LinkYieldNominalCtx(context.Background(), yieldReq)
	if err != nil {
		t.Fatal(err)
	}
	if deg.NominalDelay != want.NominalDelay {
		t.Errorf("degraded nominal delay %g != LinkYieldNominalCtx's %g (model.ScaledFor at the nominal corner)",
			deg.NominalDelay, want.NominalDelay)
	}
	if deg.Yield != want.Yield {
		t.Errorf("degraded yield %g != nominal path's %g", deg.Yield, want.Yield)
	}

	// An affordable request on the same server is still served in full.
	code, _, body = postJSON(t, base+"/v1/yield", `{"tech": "90nm", "length_mm": 5, "samples": 256, "seed": 7}`)
	if code != http.StatusOK {
		t.Fatalf("full yield request: status %d, body %s", code, body)
	}
	var full predint.YieldResult
	if err := json.Unmarshal(body, &full); err != nil {
		t.Fatal(err)
	}
	if full.Degraded || full.Samples != 256 {
		t.Errorf("affordable request degraded or truncated: %+v", full)
	}

	// The metrics endpoint reflects both hardening paths.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metricsBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var snap map[string]int64
	if err := json.Unmarshal(metricsBody, &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap["predintd.shed"] < int64(shed) {
		t.Errorf("shed counter %d below the %d observed sheds", snap["predintd.shed"], shed)
	}
	if snap["predintd.degraded"] < 1 {
		t.Error("degraded counter did not move")
	}
	if snap["predintd.latency.count"] < 1 || snap["predintd.latency.p99_us"] < snap["predintd.latency.p50_us"] {
		t.Errorf("latency histogram inconsistent: %v", snap)
	}

	// ---- Phase c: SIGTERM drains without dropping in-flight work ----
	restore = faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
		"predintd.handle": {Kind: faultinject.Delay, Delay: 600 * time.Millisecond},
	}})
	defer restore()
	type result struct {
		code int
		body []byte
	}
	inflight := make(chan result, 1)
	go func() {
		code, _, body := postJSON(t, base+"/v1/link", linkBody)
		inflight <- result{code, body}
	}()
	time.Sleep(150 * time.Millisecond) // let the slow request reach the handler
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	res := <-inflight
	if res.code != http.StatusOK {
		t.Fatalf("in-flight request dropped during drain: status %d, body %s", res.code, res.body)
	}
	var drained predint.LinkResult
	if err := json.Unmarshal(res.body, &drained); err != nil || drained.Repeaters <= 0 {
		t.Fatalf("in-flight response truncated during drain: %v\n%s", err, res.body)
	}

	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run() after drain: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("server did not exit after SIGTERM")
	}
	if !strings.Contains(stderr.String(), "drained cleanly") {
		t.Errorf("drain not logged; stderr: %s", stderr.String())
	}
	// The listener is gone: new work is refused, not silently queued.
	if resp, err := http.Post(base+"/v1/link", "application/json", strings.NewReader(linkBody)); err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("post-drain request got status %d, want a refusal", resp.StatusCode)
		}
	}
}

func TestFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-inflight", "0"},
		{"-queue", "0"},
		{"-max-yield-cost", "0"},
		{"-request-timeout", "0"},
		{"-request-timeout", "-1s"},
		{"-retry-after", "-5s"},
	} {
		var stderr syncBuf
		if err := run(args, io.Discard, &stderr); err == nil {
			t.Errorf("run(%v) accepted an invalid flag", args)
		}
	}
}

func TestUsageError(t *testing.T) {
	var stderr syncBuf
	if err := run([]string{"-no-such-flag"}, io.Discard, &stderr); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if !strings.Contains(stderr.String(), "Usage") && !strings.Contains(stderr.String(), "flag") {
		t.Errorf("no usage output on bad flags: %s", stderr.String())
	}
}
