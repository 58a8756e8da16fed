package main

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	predint "repro"
	"repro/internal/faultinject"
	"repro/internal/obs"
	"repro/internal/surface"
)

// postYield posts a /v1/yield body and decodes the result.
func postYield(t *testing.T, url, body string) predint.YieldResult {
	t.Helper()
	code, _, resp := postJSON(t, url+"/v1/yield", body)
	if code != http.StatusOK {
		t.Fatalf("yield request: status %d, body %s", code, resp)
	}
	var res predint.YieldResult
	if err := json.Unmarshal(resp, &res); err != nil {
		t.Fatalf("yield response not JSON: %v\n%s", err, resp)
	}
	return res
}

// TestYieldSurfaceLadderEndToEnd pins the three-tier serving ladder on
// /v1/yield: a cold query runs full Monte Carlo ("source": "mc"), the
// repeated query is answered from the warm surface ("source":
// "surface") with the memoized estimate unchanged, a warm query under
// queue pressure is STILL served from the surface (tier 1 outranks
// degradation — a real banded estimate beats the vacuous nominal step),
// and only a cold query under pressure falls to the closed-form
// nominal tier ("source": "nominal"). The no_surface escape hatch
// forces the full pipeline throughout.
func TestYieldSurfaceLadderEndToEnd(t *testing.T) {
	s, ts := testServer(t, 1, 8, 1<<20, 10*time.Second)
	s.surf = surface.New(surface.Options{})
	hits0 := obs.Snapshot()["predintd.yield_surface_hits"]
	misses0 := obs.Snapshot()["predintd.yield_surface_misses"]

	warmBody := `{"tech": "90nm", "length_mm": 5, "samples": 256, "seed": 9}`

	// Cold → tier 2, full Monte Carlo.
	cold := postYield(t, ts.URL, warmBody)
	if cold.Source != "mc" || cold.Degraded || cold.Samples != 256 {
		t.Fatalf("cold query: %+v, want source mc with the full budget", cold)
	}

	// Warm repeat → tier 1, the memoized estimate verbatim.
	warm := postYield(t, ts.URL, warmBody)
	if warm.Source != "surface" || warm.Degraded {
		t.Fatalf("repeated query not served from the surface: %+v", warm)
	}
	if warm.FailProb != cold.FailProb || warm.StdErr != cold.StdErr || warm.Samples != cold.Samples ||
		warm.Repeaters != cold.Repeaters || warm.RepeaterSize != cold.RepeaterSize {
		t.Fatalf("warm answer mangled the memoized estimate:\n  mc:   %+v\n  warm: %+v", cold, warm)
	}

	// Escape hatch → full pipeline, bit-identical to the cold run.
	nos := postYield(t, ts.URL, `{"tech": "90nm", "length_mm": 5, "samples": 256, "seed": 9, "no_surface": true}`)
	if nos.Source != "mc" || nos.FailProb != cold.FailProb || nos.StdErr != cold.StdErr {
		t.Fatalf("no_surface answer differs from the cold MC run:\n  mc: %+v\n  nos: %+v", cold, nos)
	}

	// Pressure phase: a delayed request holds the single slot, so the
	// next admissions observe queue pressure.
	pressureRun := func(body string) predint.YieldResult {
		t.Helper()
		defer faultinject.Activate(faultinject.Plan{Points: map[string]faultinject.Point{
			"predintd.handle": {Kind: faultinject.Delay, Delay: 400 * time.Millisecond, Times: 1},
		}})()
		slow := make(chan int, 1)
		go func() {
			code, _, _ := postJSON(t, ts.URL+"/v1/link", `{"tech": "90nm", "length_mm": 5}`)
			slow <- code
		}()
		time.Sleep(100 * time.Millisecond) // the slow request reaches the handler
		res := postYield(t, ts.URL, body)
		if got := <-slow; got != http.StatusOK {
			t.Fatalf("slot-holding request: status %d", got)
		}
		return res
	}

	// Pressured + warm → still tier 1.
	if res := pressureRun(warmBody); res.Source != "surface" || res.Degraded {
		t.Fatalf("warm query under pressure not served from the surface: %+v", res)
	}
	// Pressured + cold → tier 3, the nominal closed form.
	if res := pressureRun(`{"tech": "90nm", "length_mm": 4, "samples": 256, "seed": 9}`); res.Source != "nominal" || !res.Degraded {
		t.Fatalf("cold query under pressure did not degrade to nominal: %+v", res)
	}

	// The hit-ratio counters moved: two warm answers, at least two
	// consults that fell through (cold, pressured-cold).
	snap := obs.Snapshot()
	if got := snap["predintd.yield_surface_hits"] - hits0; got != 2 {
		t.Errorf("yield_surface_hits moved by %d, want 2", got)
	}
	if got := snap["predintd.yield_surface_misses"] - misses0; got != 2 {
		t.Errorf("yield_surface_misses moved by %d, want 2 (cold and pressured-cold)", got)
	}
}

// TestYieldBatchSurfaceEndToEnd pins the all-or-nothing batch surface
// path over HTTP: a repeated batch is served entirely from the cache,
// per-candidate estimates unchanged.
func TestYieldBatchSurfaceEndToEnd(t *testing.T) {
	s, ts := testServer(t, 4, 16, 1<<20, 30*time.Second)
	s.surf = surface.New(surface.Options{})
	body := `{"tech": "90nm", "length_mm": 5, "samples": 256, "seed": 2, "target_ps": 520,
	  "candidates": [{"repeater_size": 8, "repeaters": 10}, {"repeater_size": 12, "repeaters": 8}]}`
	post := func() predint.YieldBatchResult {
		t.Helper()
		code, _, resp := postJSON(t, ts.URL+"/v1/yield/batch", body)
		if code != http.StatusOK {
			t.Fatalf("batch: status %d, body %s", code, resp)
		}
		var res predint.YieldBatchResult
		if err := json.Unmarshal(resp, &res); err != nil {
			t.Fatal(err)
		}
		return res
	}
	cold := post()
	for c, r := range cold.Results {
		if r.Source != "mc" {
			t.Fatalf("cold batch candidate %d labeled %q", c, r.Source)
		}
	}
	warm := post()
	for c, r := range warm.Results {
		if r.Source != "surface" || r.FailProb != cold.Results[c].FailProb || r.StdErr != cold.Results[c].StdErr {
			t.Fatalf("warm batch candidate %d not the memoized estimate: %+v vs %+v", c, r, cold.Results[c])
		}
	}
}

// TestServedSurfaceMissCountsOnce: a /v1/yield or /v1/yield/batch query
// that the surface cannot answer consults it exactly once — the tier-1
// probe — so the cache's miss count and the surface.misses counter move
// by one, as predintd.yield_surface_misses does, and the sampling run
// that follows does not consult again. That holds on a warm class whose
// curve misses the target and on a cold class, which has no design memo
// to look the curve up by.
func TestServedSurfaceMissCountsOnce(t *testing.T) {
	s, ts := testServer(t, 1, 8, 1<<20, 10*time.Second)
	s.surf = surface.New(surface.Options{})
	const cands = `, "candidates": [{"repeater_size": 8, "repeaters": 10}, {"repeater_size": 12, "repeaters": 8}]}`
	for _, c := range []struct{ path, warm, miss string }{
		{"/v1/yield",
			`{"tech": "90nm", "length_mm": 5, "samples": 256, "seed": 9, "target_ps": 540}`,
			`{"tech": "90nm", "length_mm": 5, "samples": 256, "seed": 9, "target_ps": 700}`},
		{"/v1/yield/batch",
			`{"tech": "90nm", "length_mm": 5, "samples": 256, "seed": 2, "target_ps": 540` + cands,
			`{"tech": "90nm", "length_mm": 5, "samples": 256, "seed": 2, "target_ps": 700` + cands},
		{"/v1/yield", "", // a cold class
			`{"tech": "65nm", "length_mm": 3, "samples": 256, "seed": 9}`},
	} {
		what := c.path
		if c.warm != "" {
			if code, _, resp := postJSON(t, ts.URL+c.path, c.warm); code != http.StatusOK {
				t.Fatalf("%s warm-up: status %d, body %s", c.path, code, resp)
			}
		} else {
			what += " (cold class)"
		}
		stats0, snap0 := s.surf.Stats(), obs.Snapshot()
		code, _, resp := postJSON(t, ts.URL+c.path, c.miss)
		if code != http.StatusOK {
			t.Fatalf("%s miss: status %d, body %s", what, code, resp)
		}
		snap := obs.Snapshot()
		if got := s.surf.Stats().Misses - stats0.Misses; got != 1 {
			t.Errorf("%s: one served miss moved the cache's Misses by %d, want 1", what, got)
		}
		for _, name := range []string{"surface.misses", "predintd.yield_surface_misses"} {
			if got := snap[name] - snap0[name]; got != 1 {
				t.Errorf("%s: one served miss moved %s by %d, want 1", what, name, got)
			}
		}
	}
}
