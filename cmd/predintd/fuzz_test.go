package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/coordinator"
	"repro/internal/surface"
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

// FuzzShardRequestBody sends arbitrary bodies to the coordinator
// protocol's /v1/internal/shard handler on a worker with a warm-start
// surface, so every op is reachable: a sample op replans the request
// (decoding, routing and the buffering search on whatever link the body
// describes) and collects its range, a probe op consults the surface,
// and a record op writes to it. Sample ranges longer than shardFuzzCap
// are skipped to keep each input cheap. Whatever the body, the answer
// must be a 200, a 400 or a 413.
func FuzzShardRequestBody(f *testing.F) {
	const shardFuzzCap = 256
	for _, seed := range []string{
		`{"op": "sample", "req": {"Tech": "90nm", "LengthMM": 5, "Seed": 3}, "start": 0, "count": 64}`,
		`{"op": "sample", "req": {"Tech": "65nm", "LengthMM": 3, "Estimator": "isle", "TargetSigma": 4, "Samples": 512}, "start": 448, "count": 64}`,
		`{"op": "sample", "req": {"Tech": "45nm", "LengthMM": 8, "Estimator": "qmc", "Style": "staggered", "PowerWeight": 0.7}, "start": 32, "count": 32}`,
		`{"op": "sample", "req": {"Tech": "90nm", "LengthMM": 5, "Estimator": "ais"}, "start": 0, "count": 8}`,
		`{"op": "sample", "req": {"Tech": "90nm", "LengthMM": 5, "YieldTarget": 0.99}, "start": 0, "count": 8}`,
		`{"op": "sample", "req": {"Tech": "90nm", "LengthMM": 5, "Samples": 16}, "start": 8, "count": 9}`,
		`{"op": "sample", "req": {"Tech": "90nm", "LengthMM": 5}, "start": -1, "count": 4}`,
		`{"op": "sample", "req": {"Tech": "90nm", "LengthMM": 1e9, "InputSlewPS": 1e-300, "TargetPS": 1e308}, "start": 0, "count": 1}`,
		`{"op": "probe", "req": {"Tech": "90nm", "LengthMM": 5}}`,
		`{"op": "record", "req": {"Tech": "90nm", "LengthMM": 5}, "result": {"Repeaters": 2, "RepeaterSize": 60, "NominalDelay": 4.3e-10, "Yield": 0.5, "FailProb": 0.5, "Samples": 64, "Estimator": "mc", "Source": "mc"}}`,
		// A result no estimation produces: the owner refuses it (a 400).
		`{"op": "record", "req": {"Tech": "90nm", "LengthMM": 5}, "result": {"Repeaters": 0, "RepeaterSize": 60, "NominalDelay": 4.3e-10, "Yield": -6, "FailProb": 7, "StdErr": -1, "Samples": 64, "Estimator": "bogus", "Source": "mc"}}`,
		// A peer still sending the retired surface_version field: a 400.
		`{"op": "probe", "req": {"Tech": "90nm", "LengthMM": 5}, "surface_version": 0}`,
		`{"op": "bogus"}`,
		`{"op": "sample", "req": {"Tech": "90nm", "LengthMM": 5}, "extra": 1}`,
		`{"op": "sample",`,
		``,
	} {
		f.Add(seed)
	}
	s := newServer(4, 16, 0, time.Minute, time.Second)
	s.surf = surface.New(surface.Options{})
	h := s.routes()
	f.Fuzz(func(t *testing.T, body string) {
		var sr coordinator.ShardRequest
		if json.Unmarshal([]byte(body), &sr) == nil && sr.Op == coordinator.OpSample && sr.Count > shardFuzzCap {
			t.Skip("sample range over the fuzz cap")
		}
		postFuzzBody(t, h, "/v1/internal/shard", body)
	})
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
// the NoC synthesis, with the traffic simulation when asked for.
// Whatever the body, the answer must be a 200, a 400 or a 413.
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
