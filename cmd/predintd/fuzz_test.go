package main

import (
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
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
			switch rec.Code {
			case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
			default:
				t.Fatalf("POST %s %q: status %d, want 200, 400 or 413: %s", path, body, rec.Code, rec.Body)
			}
		}
	})
}
