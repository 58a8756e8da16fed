package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/surface"
)

// wireCase is one public request of TestPublicWireGolden. The cases run
// in order on one server, so a warm repeat follows the request that
// warmed the surface.
type wireCase struct {
	name, path, body string
	status           int
	// statusOnly skips the body comparison: a JSON type error names the
	// Go type the decoder filled, which is not part of the wire.
	statusOnly bool
}

// wireMaxYieldCost is the server's -max-yield-cost in the golden run:
// the sampled cases stay under it and the degraded ones go over it.
const wireMaxYieldCost = 4096

var wireCases = []wireCase{
	{name: "link-defaults", path: "/v1/link", body: `{"tech": "90nm", "length_mm": 5}`, status: 200},
	{name: "link-explicit", path: "/v1/link", body: `{"tech": "65nm", "length_mm": 3, "bits": 32, "style": "shielded", "power_weight": 0.7,
		"library_sizes_only": true, "activity_factor": 0.3, "input_slew_ps": 80}`, status: 200},
	{name: "link-geometry", path: "/v1/link", body: `{"tech": "90nm", "length_mm": 4, "delay_optimal": true, "optimize_geometry": true, "max_pitch_mult": 2}`, status: 200},
	{name: "yield-sampled", path: "/v1/yield", body: `{"tech": "90nm", "length_mm": 5, "target_ps": 520, "samples": 1024, "seed": 7, "no_surface": true}`, status: 200},
	{name: "yield-isle", path: "/v1/yield", body: `{"tech": "65nm", "length_mm": 3, "samples": 1024, "seed": 3, "estimator": "isle",
		"target_sigma": 3, "sigma_scale": 1.5, "rel_err": 0.5, "abs_err": 1e-9, "input_slew_ps": 200, "no_surface": true}`, status: 200},
	{name: "yield-cold", path: "/v1/yield", body: `{"tech": "90nm", "length_mm": 5, "target_ps": 560, "samples": 1024, "seed": 11}`, status: 200},
	{name: "yield-warm", path: "/v1/yield", body: `{"tech": "90nm", "length_mm": 5, "target_ps": 560, "samples": 1024, "seed": 11}`, status: 200},
	{name: "yield-degraded", path: "/v1/yield", body: `{"tech": "90nm", "length_mm": 5, "samples": 100000, "power_weight": 0.2}`, status: 200},
	{name: "yield-sizing", path: "/v1/yield", body: `{"tech": "90nm", "length_mm": 5, "power_weight": 0.9, "target_ps": 500, "samples": 512, "seed": 5,
		"yield_target": 0.95, "no_surface": true}`, status: 200},
	{name: "batch-sampled", path: "/v1/yield/batch", body: `{"tech": "90nm", "length_mm": 5, "target_ps": 520, "samples": 512, "seed": 1, "no_surface": true,
		"candidates": [{"repeater_size": 8, "repeaters": 10}, {"repeater_size": 60, "repeaters": 2}]}`, status: 200},
	{name: "batch-degraded", path: "/v1/yield/batch", body: `{"tech": "90nm", "length_mm": 5, "samples": 8192,
		"candidates": [{"repeater_size": 60, "repeaters": 2}, {"repeater_size": 4, "repeaters": 1}]}`, status: 200},
	{name: "noc", path: "/v1/noc", body: `{"case": "VPROC", "tech": "90nm"}`, status: 200},
	{name: "link-unknown-field", path: "/v1/link", body: `{"tech": "90nm", "length_mm": 5, "lenght": 3}`, status: 400},
	{name: "yield-unknown-field", path: "/v1/yield", body: `{"tech": "90nm", "length_mm": 5, "sampler": "box-muller"}`, status: 400},
	{name: "batch-unknown-field", path: "/v1/yield/batch", body: `{"tech": "90nm", "length_mm": 5, "candidates": [{"repeater_size": 8, "repeaters": 10, "kind": "inv"}]}`, status: 400},
	{name: "noc-unknown-field", path: "/v1/noc", body: `{"case": "VPROC", "tech": "90nm", "extra": 1}`, status: 400},
	{name: "yield-validation", path: "/v1/yield", body: `{"tech": "13nm", "length_mm": 5}`, status: 400},
	{name: "link-type-error", path: "/v1/link", body: `{"tech": "90nm", "length_mm": "5"}`, status: 400, statusOnly: true},
	{name: "yield-type-error", path: "/v1/yield", body: `{"tech": "90nm", "length_mm": 5, "samples": 1.5}`, status: 400, statusOnly: true},
}

// TestPublicWireGolden holds every public route's status and answer to
// goldens in testdata/wire: the keys, their order, the omitted fields
// and every bit of every number. It also checks that each served yield
// result moves exactly one predintd.yield_by_<rung> counter, the one
// its "estimator" names (yield_by_nominal when it names none).
func TestPublicWireGolden(t *testing.T) {
	s := newServer(4, 16, wireMaxYieldCost, time.Minute, time.Second)
	s.surf = surface.New(surface.Options{})
	h := s.routes()
	for _, c := range wireCases {
		before := yieldCounts()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, c.path, strings.NewReader(c.body)))
		if rec.Code != c.status {
			t.Errorf("%s: status %d, want %d: %s", c.name, rec.Code, c.status, rec.Body)
			continue
		}
		if !c.statusOnly {
			want, err := os.ReadFile(filepath.Join("testdata", "wire", c.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Body.Bytes(), want) {
				t.Errorf("%s: body differs from its golden\n got: %s\nwant: %s", c.name, rec.Body, want)
			}
		}
		want := servedRungs(t, c, rec)
		after := yieldCounts()
		for kind := range metYieldByEstimator {
			if got := after[kind] - before[kind]; got != want[kind] {
				t.Errorf("%s: the counter of rung %q moved by %d, want %d", c.name, kind, got, want[kind])
			}
		}
	}
}

func yieldCounts() map[string]int64 {
	out := make(map[string]int64, len(metYieldByEstimator))
	for kind, c := range metYieldByEstimator {
		out[kind] = c.Value()
	}
	return out
}

// servedRungs counts the results of a served yield answer by the rung
// each names.
func servedRungs(t *testing.T, c wireCase, rec *httptest.ResponseRecorder) map[string]int64 {
	t.Helper()
	out := map[string]int64{}
	if rec.Code != http.StatusOK || !strings.HasPrefix(c.path, "/v1/yield") {
		return out
	}
	type result struct {
		Estimator string `json:"estimator"`
	}
	var doc struct {
		result
		Results []result `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	if c.path == "/v1/yield" {
		doc.Results = []result{doc.result}
	}
	for _, r := range doc.Results {
		out[r.Estimator]++
	}
	return out
}
