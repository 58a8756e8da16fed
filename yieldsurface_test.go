package predint

import (
	"context"
	"math"
	"testing"

	"repro/internal/surface"
)

// TestSurfaceOffVsMissBitIdentical pins the cache's strict-acceleration
// contract: a sampled query through a bound cache — cold, warm, or
// NoSurface — is bit-identical, every field, to the same request with
// no cache bound. Only the probe reads the surface, and its
// exact-target hit returns the memoized estimate unchanged.
func TestSurfaceOffVsMissBitIdentical(t *testing.T) {
	ctx := context.Background()
	req := YieldRequest{Tech: "65nm", LengthMM: 3, Samples: Int(256), Seed: 11}
	base, err := uncached.LinkYieldCtx(ctx, req) // no cache bound: the uncached path
	if err != nil {
		t.Fatal(err)
	}
	if base.Source != SourceMC {
		t.Fatalf("MC result labeled %q, want %q", base.Source, SourceMC)
	}

	sf := Surfaced{Cache: surface.New(surface.Options{})}
	if _, hit, err := sf.LinkYieldSurfaceCtx(ctx, req); err != nil || hit {
		t.Fatalf("cold probe: hit=%v, err %v", hit, err)
	}
	miss, err := sf.LinkYieldCtx(ctx, req) // samples and records
	if err != nil {
		t.Fatal(err)
	}
	if miss != base {
		t.Fatalf("surface-miss result differs from surface-off:\n  off:  %+v\n  miss: %+v", base, miss)
	}

	warm, hit, err := sf.LinkYieldSurfaceCtx(ctx, req) // exact-target warm hit
	if err != nil {
		t.Fatal(err)
	}
	if !hit || warm.Source != SourceSurface {
		t.Fatalf("repeated probe not served from the surface: hit=%v %+v", hit, warm)
	}
	if warm.FailProb != base.FailProb || warm.StdErr != base.StdErr || warm.Samples != base.Samples ||
		warm.Repeaters != base.Repeaters || warm.RepeaterSize != base.RepeaterSize ||
		warm.NominalDelay != base.NominalDelay || warm.Yield != 1-base.FailProb {
		t.Fatalf("exact-target warm hit mangled the memoized estimate:\n  mc:   %+v\n  warm: %+v", base, warm)
	}
	again, err := sf.LinkYieldCtx(ctx, req) // the sampling entry never reads the warm surface
	if err != nil {
		t.Fatal(err)
	}
	if again != base {
		t.Fatalf("sampling on a warm class differs from surface-off:\n  off:  %+v\n  warm: %+v", base, again)
	}

	nos := req
	nos.NoSurface = true
	if _, hit, err := sf.LinkYieldSurfaceCtx(ctx, nos); err != nil || hit {
		t.Fatalf("NoSurface probe: hit=%v, err %v", hit, err)
	}
	off, err := sf.LinkYieldCtx(ctx, nos)
	if err != nil {
		t.Fatal(err)
	}
	if off != base {
		t.Fatalf("NoSurface result differs from surface-off:\n  off:       %+v\n  NoSurface: %+v", base, off)
	}
}

// TestRecordYieldRefusesImpossibleResults pins RecordYield's input
// checks: a result no estimation produces — a failure probability
// outside [0, 1], a negative standard error, an estimator the ladder
// does not name, a design without a positive size, count or nominal
// delay — is refused with an error, leaves the cache as it was, and a
// later probe of the request misses. The sampled result itself records,
// and its probe hits.
func TestRecordYieldRefusesImpossibleResults(t *testing.T) {
	req := YieldRequest{Tech: "65nm", LengthMM: 3, Samples: Int(256), Seed: 11}
	good, err := uncached.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	probe := func(t *testing.T, res YieldResult) (surface.Stats, bool) {
		t.Helper()
		sf := Surfaced{Cache: surface.New(surface.Options{})}
		rerr := sf.RecordYield(req, res)
		_, hit, err := sf.LinkYieldSurfaceCtx(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if (rerr == nil) != hit {
			t.Fatalf("record error %v, but the probe hit=%v", rerr, hit)
		}
		return sf.Cache.Stats(), hit
	}
	if _, hit := probe(t, good); !hit {
		t.Fatal("the sampled result was not recorded")
	}
	for name, mutate := range map[string]func(*YieldResult){
		"fail-prob-above-one": func(r *YieldResult) { r.FailProb = 7 },
		"fail-prob-negative":  func(r *YieldResult) { r.FailProb = -1 },
		"stderr-negative":     func(r *YieldResult) { r.StdErr = -1e-3 },
		"estimator-unknown":   func(r *YieldResult) { r.Estimator = "bogus" },
		"estimator-auto":      func(r *YieldResult) { r.Estimator = "auto" },
		"estimator-empty":     func(r *YieldResult) { r.Estimator = "" },
		"size-zero":           func(r *YieldResult) { r.RepeaterSize = 0 },
		"repeaters-zero":      func(r *YieldResult) { r.Repeaters = 0 },
		"delay-zero":          func(r *YieldResult) { r.NominalDelay = 0 },
	} {
		t.Run(name, func(t *testing.T) {
			bad := good
			mutate(&bad)
			st, hit := probe(t, bad)
			if hit || st.Entries != 0 || st.Points != 0 || st.Records != 0 {
				t.Fatalf("impossible result %+v entered the surface: %+v, probe hit=%v", bad, st, hit)
			}
		})
	}
}

// TestSurfaceSizingNeverConsults: a YieldTarget (sizing) request always
// samples — the chosen design depends on the target, which a memoized
// curve cannot re-decide — so its probe misses even when the plain
// estimate of the same link is warm.
func TestSurfaceSizingNeverConsults(t *testing.T) {
	ctx := context.Background()
	sf := Surfaced{Cache: surface.New(surface.Options{})}
	req := YieldRequest{Tech: "65nm", LengthMM: 3, Samples: Int(256), Seed: 11}
	if _, err := sf.LinkYieldCtx(ctx, req); err != nil { // warm the plain curve
		t.Fatal(err)
	}
	if _, hit, err := sf.LinkYieldSurfaceCtx(ctx, req); err != nil || !hit {
		t.Fatalf("plain probe after warm-up: hit=%v, err %v", hit, err)
	}
	req.YieldTarget = Float(0.5)
	if res, hit, err := sf.LinkYieldSurfaceCtx(ctx, req); err != nil || hit {
		t.Fatalf("sizing request served from the surface: hit=%v, err %v, %+v", hit, err, res)
	}
	sized, err := sf.LinkYieldCtx(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if sized.Source != SourceMC {
		t.Fatalf("sizing request labeled %q, want %q", sized.Source, SourceMC)
	}
}

// TestSurfaceBatchAllOrNothing: the batch probe answers only when every
// candidate is warm; a fresh candidate sends the whole batch back to
// the shared-sample kernel.
func TestSurfaceBatchAllOrNothing(t *testing.T) {
	ctx := context.Background()
	sf := Surfaced{Cache: surface.New(surface.Options{})}
	breq := YieldBatchRequest{
		YieldRequest: YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(256), Seed: 3, TargetPS: Float(520)},
		Candidates:   []YieldCandidate{{RepeaterSize: 8, Repeaters: 10}, {RepeaterSize: 12, Repeaters: 8}},
	}
	first, err := sf.LinkYieldBatchCtx(ctx, breq)
	if err != nil {
		t.Fatal(err)
	}
	for c, r := range first.Results {
		if r.Source != SourceMC {
			t.Fatalf("cold batch candidate %d labeled %q", c, r.Source)
		}
	}
	warm, hit, err := sf.LinkYieldBatchSurfaceCtx(ctx, breq)
	if err != nil {
		t.Fatal(err)
	}
	if !hit {
		t.Fatal("warm batch probe missed")
	}
	for c, r := range warm.Results {
		if r.Source != SourceSurface {
			t.Fatalf("warm batch candidate %d not served from the surface: %+v", c, r)
		}
		if r.FailProb != first.Results[c].FailProb || r.StdErr != first.Results[c].StdErr ||
			r.Samples != first.Results[c].Samples {
			t.Fatalf("warm batch candidate %d mangled: %+v vs %+v", c, r, first.Results[c])
		}
	}
	breq.Candidates = append(breq.Candidates, YieldCandidate{RepeaterSize: 16, Repeaters: 6})
	if _, hit, err := sf.LinkYieldBatchSurfaceCtx(ctx, breq); err != nil || hit {
		t.Fatalf("batch with one cold candidate: probe hit=%v, err %v", hit, err)
	}
	mixed, err := sf.LinkYieldBatchCtx(ctx, breq)
	if err != nil {
		t.Fatal(err)
	}
	for c, r := range mixed.Results {
		if r.Source != SourceMC {
			t.Fatalf("batch with one cold candidate served candidate %d from the surface", c)
		}
	}
}

// TestSurfaceInterpolationBandCoversMC is the acceptance check on the
// conservative band: a between-points warm answer's 95% band, combined
// with the fresh run's own, must cover a full Monte Carlo estimate at
// the interpolated target.
func TestSurfaceInterpolationBandCoversMC(t *testing.T) {
	ctx := context.Background()
	sf := Surfaced{Cache: surface.New(surface.Options{})}
	req := func(targetPS float64) YieldRequest {
		return YieldRequest{
			Tech: "90nm", LengthMM: 5, Samples: Int(2048), Seed: 5,
			TargetPS: Float(targetPS),
			// A loose acceptance band so the interpolated answer is
			// served even across a wide bracketing gap.
			RelErr: Float(3),
		}
	}
	for _, bracket := range []float64{430, 450} {
		if _, err := sf.LinkYieldCtx(ctx, req(bracket)); err != nil {
			t.Fatal(err)
		}
	}
	warm, hit, err := sf.LinkYieldSurfaceCtx(ctx, req(440))
	if err != nil {
		t.Fatal(err)
	}
	if !hit || warm.Source != SourceSurface {
		t.Fatalf("bracketed query not interpolated from the surface: hit=%v %+v", hit, warm)
	}
	mc, err := sf.LinkYieldCtx(ctx, req(440)) // fresh full MC at the same target
	if err != nil {
		t.Fatal(err)
	}
	if diff := math.Abs(warm.FailProb - mc.FailProb); diff > warm.CI95+mc.CI95 {
		t.Fatalf("interpolated fail prob %g ± %g inconsistent with MC %g ± %g (diff %g)",
			warm.FailProb, warm.CI95, mc.FailProb, mc.CI95, diff)
	}
}
