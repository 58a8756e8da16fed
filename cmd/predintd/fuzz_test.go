package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// FuzzYieldRequestBody sends arbitrary bodies through the /v1/yield and
// /v1/yield/batch handlers of a server run with -max-yield-cost 0, which
// sends every well-formed request down the closed-form nominal path, so
// an input costs microseconds rather than a Monte Carlo run. Whatever
// the body, the answer must be a 200, a 400 or a 413: a 500 (a handler
// panic or an unclassified engine failure) or any other status is a
// hole in the request boundary.
func FuzzYieldRequestBody(f *testing.F) {
	for _, seed := range []string{
		`{"tech": "90nm", "length_mm": 5}`,
		`{"tech": "65nm", "length_mm": 3, "target_ps": 444, "samples": 64, "seed": 7, "estimator": "isle", "target_sigma": 4}`,
		`{"tech": "90nm", "length_mm": 5, "yield_target": 0.95, "power_weight": 0.8, "style": "shielded"}`,
		`{"tech": "90nm", "length_mm": 5, "candidates": [{"repeater_size": 8, "repeaters": 10}, {"repeater_size": 12, "repeaters": 8}]}`,
		`{"tech": "90nm", "length_mm": 5, "sampler": "box-muller"}`,
		`{"tech": "90nm", "length_mm": 5, "importance_sampling": true}`,
		`{"tech": "90nm", "length_mm": 5, "samples": -1, "sigma_scale": 0, "rel_err": -1}`,
		`{"tech": "90nm", "length_mm": 5, "target_ps": 1e308, "input_slew_ps": 1e-300, "no_surface": true}`,
		`{"tech": "90nm",`,
		`[]`,
		``,
	} {
		f.Add(seed)
	}
	h := newServer(4, 16, 0, time.Minute, time.Second).routes()
	f.Fuzz(func(t *testing.T, body string) {
		for _, path := range []string{"/v1/yield", "/v1/yield/batch"} {
			postFuzzBody(t, h, path, body)
		}
	})
}

// shardFuzzCap is the cost ceiling of the servers that
// FuzzShardRequestBody and TestShardSeedsReachTheirStage post to: above
// the largest seed range (64 samples), so every seed reaches its op,
// and small enough that any accepted input stays cheap. A longer range
// gets the ceiling's 400.
const shardFuzzCap = 256

// shardSeeds are FuzzShardRequestBody's seed corpus, each with the
// status it gets and what its answer must show: for a 200 a fragment of
// the op's answer, for a 400 the start of the error text, which names
// the stage that refused it.
var shardSeeds = []struct {
	body   string
	status int
	want   string
}{
	{`{"op": "sample", "req": {"tech": "90nm", "length_mm": 5, "seed": 3}, "start": 0, "count": 64}`, 200, `"kind":"mc"`},
	{`{"op": "sample", "req": {"tech": "65nm", "length_mm": 3, "estimator": "isle", "target_sigma": 4, "samples": 512}, "start": 448, "count": 64}`, 200, `"kind":"isle"`},
	{`{"op": "sample", "req": {"tech": "45nm", "length_mm": 8, "estimator": "qmc", "style": "staggered", "power_weight": 0.7}, "start": 32, "count": 32}`, 200, `"kind":"qmc"`},
	{`{"op": "sample", "req": {"tech": "90nm", "length_mm": 5, "estimator": "ais"}, "start": 0, "count": 8}`, 400,
		"variation: request cannot be sharded by sample index: estimator rung is not index-keyed"},
	{`{"op": "sample", "req": {"tech": "90nm", "length_mm": 5, "yield_target": 0.99}, "start": 0, "count": 8}`, 400,
		"variation: request cannot be sharded by sample index: sizing (yield-target) requests drive sampling adaptively"},
	{`{"op": "sample", "req": {"tech": "90nm", "length_mm": 5, "samples": 16}, "start": 8, "count": 9}`, 400,
		"variation: shard range [8,17) outside sample budget 16"},
	{`{"op": "sample", "req": {"tech": "90nm", "length_mm": 5}, "start": -1, "count": 4}`, 400,
		"variation: shard range [-1,3) outside sample budget 4096"},
	{`{"op": "sample", "req": {"tech": "90nm", "length_mm": 1e9, "input_slew_ps": 1e-300, "target_ps": 1e308}, "start": 0, "count": 1}`, 200, `"count":1`},
	// Ops of an older build, whose protocol also probed and recorded
	// the warm surface.
	{`{"op": "probe", "req": {"tech": "90nm", "length_mm": 5}}`, 400, `coordinator: unknown shard op "probe"`},
	{`{"op": "record", "req": {"tech": "90nm", "length_mm": 5}, "result": {"repeaters": 2, "repeater_size": 60, "nominal_delay_s": 4.3e-10,
		"yield": 0.5, "fail_prob": 0.5, "samples": 64, "estimator": "mc", "source": "mc"}}`, 400,
		`predintd: bad request body: json: unknown field "result"`},
	{`{"op": "record", "req": {"tech": "90nm", "length_mm": 5}}`, 400, `coordinator: unknown shard op "record"`},
	// A peer still sending the retired surface_version field.
	{`{"op": "probe", "req": {"tech": "90nm", "length_mm": 5}, "surface_version": 0}`, 400,
		`predintd: bad request body: json: unknown field "surface_version"`},
	{`{"op": "bogus"}`, 400, `coordinator: unknown shard op "bogus"`},
	{`{"op": "sample", "req": {"tech": "90nm", "length_mm": 5}, "extra": 1}`, 400, `predintd: bad request body: json: unknown field "extra"`},
	{`{"op": "sample",`, 400, "predintd: bad request body: unexpected EOF"},
	{``, 400, "predintd: bad request body: EOF"},
	// A peer of an older build, which spelled the request in Go field
	// names: refused at the decoder, so the front retries and falls
	// back to local execution.
	{`{"op": "sample", "req": {"Tech": "90nm", "LengthMM": 5, "Seed": 3}, "start": 0, "count": 64}`, 400,
		`predintd: bad request body: json: unknown field "LengthMM"`},
}

// FuzzShardRequestBody sends arbitrary bodies to the coordinator
// protocol's /v1/internal/shard handler: a sample op plans the request
// (decoding, routing and the buffering search on whatever link the body
// describes, through the server's plan memo) and collects its range, a
// range over the server's cost ceiling (shardFuzzCap) is refused, and
// any other op is refused. Whatever the body, the answer must be a 200,
// a 400 or a 413.
func FuzzShardRequestBody(f *testing.F) {
	for _, seed := range shardSeeds {
		f.Add(seed.body)
	}
	h := newServer(4, 16, shardFuzzCap, time.Minute, time.Second).routes()
	f.Fuzz(func(t *testing.T, body string) {
		postFuzzBody(t, h, "/v1/internal/shard", body)
	})
}

// TestShardSeedsReachTheirStage holds each FuzzShardRequestBody seed to
// its status and answer, so a seed that stops at the decoder instead of
// its op is caught rather than passing the fuzz target's status check.
func TestShardSeedsReachTheirStage(t *testing.T) {
	h := newServer(4, 16, shardFuzzCap, time.Minute, time.Second).routes()
	for i, seed := range shardSeeds {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/internal/shard", strings.NewReader(seed.body)))
		if rec.Code != seed.status {
			t.Errorf("seed %d: status %d, want %d: %s", i, rec.Code, seed.status, rec.Body)
			continue
		}
		if seed.status == http.StatusOK {
			if !strings.Contains(rec.Body.String(), seed.want) {
				t.Errorf("seed %d: answer lacks %s: %s", i, seed.want, rec.Body)
			}
			continue
		}
		var doc struct{ Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil || !strings.HasPrefix(doc.Error, seed.want) {
			t.Errorf("seed %d: error %q, want it to start with %q", i, doc.Error, seed.want)
		}
	}
}

// FuzzLinkRequestBody sends arbitrary bodies through the /v1/link
// handler: every decodable body runs the full link design (the
// buffering search, and the geometry search when asked for). Whatever
// the body, the answer must be a 200, a 400 or a 413.
func FuzzLinkRequestBody(f *testing.F) {
	for _, seed := range []string{
		`{"tech": "90nm", "length_mm": 5}`,
		`{"tech": "65nm", "length_mm": 3, "bits": 32, "style": "shielded", "power_weight": 0.7, "input_slew_ps": 80}`,
		`{"tech": "45nm", "length_mm": 8, "style": "staggered", "delay_optimal": true, "library_sizes_only": true}`,
		`{"tech": "90nm", "length_mm": 5, "optimize_geometry": true, "max_pitch_mult": 3, "activity_factor": 0.3}`,
		`{"tech": "90nm", "length_mm": -1, "bits": 0, "power_weight": 2, "activity_factor": -1}`,
		`{"tech": "90nm", "length_mm": 1e9, "input_slew_ps": 1e-300, "max_pitch_mult": 1e308}`,
		`{"tech": "3nm", "length_mm": 5, "style": "diagonal"}`,
		`{"tech": "90nm", "length_mm": 5, "extra": 1}`,
		`{"tech": "90nm",`,
		`[]`,
		``,
	} {
		f.Add(seed)
	}
	h := newServer(4, 16, 0, time.Minute, time.Second).routes()
	f.Fuzz(func(t *testing.T, body string) {
		postFuzzBody(t, h, "/v1/link", body)
	})
}

// FuzzNoCRequestBody sends arbitrary bodies through the /v1/noc
// handler: every decodable body with a known case and technology runs
// the NoC synthesis, and a body with an unknown field (such as the
// retired "simulate_traffic") is refused at the decoder. Whatever the
// body, the answer must be a 200, a 400 or a 413.
func FuzzNoCRequestBody(f *testing.F) {
	for _, seed := range []string{
		`{"case": "VPROC", "tech": "90nm"}`,
		`{"case": "DVOPD", "tech": "65nm", "style": "shielded", "workers": 2}`,
		`{"case": "VPROC", "tech": "45nm", "use_original_model": true, "simulate_traffic": true}`,
		`{"case": "VPROC", "tech": "90nm", "workers": -3}`,
		`{"case": "MPEG4", "tech": "90nm"}`,
		`{"case": "VPROC", "tech": "3nm", "style": "diagonal"}`,
		`{"case": "VPROC", "tech": "90nm", "extra": 1}`,
		`{"case": "VPROC",`,
		`[]`,
		``,
	} {
		f.Add(seed)
	}
	h := newServer(4, 16, 0, time.Minute, time.Second).routes()
	f.Fuzz(func(t *testing.T, body string) {
		postFuzzBody(t, h, "/v1/noc", body)
	})
}

// postFuzzBody posts body to path on h and fails unless the answer is
// a 200, a 400 or a 413: a 500 (a handler panic or an unclassified
// engine failure) or any other status is a hole in the request
// boundary.
func postFuzzBody(t *testing.T, h http.Handler, path, body string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
	switch rec.Code {
	case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
	default:
		t.Fatalf("POST %s %q: status %d, want 200, 400 or 413: %s", path, body, rec.Code, rec.Body)
	}
}
