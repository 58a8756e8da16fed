package predint

import (
	"context"
	"math"
	"testing"

	"repro/internal/surface"
)

// TestSurfaceOffVsMissBitIdentical pins the cache's strict-acceleration
// contract: a cold (miss) query through a bound cache, and a NoSurface
// query through it, are both bit-identical — every field — to the same
// request with no cache bound. Only repeated warm queries change
// behavior, and those are exact-target hits returning the memoized
// estimate unchanged.
func TestSurfaceOffVsMissBitIdentical(t *testing.T) {
	req := YieldRequest{Tech: "65nm", LengthMM: 3, Samples: Int(256), Seed: 11}
	base, err := uncached.LinkYieldCtx(context.Background(), req) // no cache bound: the uncached path
	if err != nil {
		t.Fatal(err)
	}
	if base.Source != SourceMC {
		t.Fatalf("MC result labeled %q, want %q", base.Source, SourceMC)
	}

	sf := Surfaced{Cache: surface.New(surface.Options{})}

	miss, err := sf.LinkYieldCtx(context.Background(), req) // cold cache: consult misses, full MC runs
	if err != nil {
		t.Fatal(err)
	}
	if miss != base {
		t.Fatalf("surface-miss result differs from surface-off:\n  off:  %+v\n  miss: %+v", base, miss)
	}

	warm, err := sf.LinkYieldCtx(context.Background(), req) // exact-target warm hit
	if err != nil {
		t.Fatal(err)
	}
	if warm.Source != SourceSurface {
		t.Fatalf("repeated query not served from the surface: %+v", warm)
	}
	if warm.FailProb != base.FailProb || warm.StdErr != base.StdErr || warm.Samples != base.Samples ||
		warm.Repeaters != base.Repeaters || warm.RepeaterSize != base.RepeaterSize ||
		warm.NominalDelay != base.NominalDelay || warm.Yield != 1-base.FailProb {
		t.Fatalf("exact-target warm hit mangled the memoized estimate:\n  mc:   %+v\n  warm: %+v", base, warm)
	}

	nos := req
	nos.NoSurface = true
	off, err := sf.LinkYieldCtx(context.Background(), nos) // escape hatch: bypasses the warm cache
	if err != nil {
		t.Fatal(err)
	}
	if off != base {
		t.Fatalf("NoSurface result differs from surface-off:\n  off:       %+v\n  NoSurface: %+v", base, off)
	}
}

// TestRecordYieldRefusesImpossibleResults pins the owner side of the
// record op: a result no estimation produces — a failure probability
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
// curve cannot re-decide — even when the plain estimate of the same
// link is warm.
func TestSurfaceSizingNeverConsults(t *testing.T) {
	sf := Surfaced{Cache: surface.New(surface.Options{})}
	req := YieldRequest{Tech: "65nm", LengthMM: 3, Samples: Int(256), Seed: 11}
	if _, err := sf.LinkYieldCtx(context.Background(), req); err != nil { // warm the plain curve
		t.Fatal(err)
	}
	req.YieldTarget = Float(0.5)
	sized, err := sf.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if sized.Source != SourceMC {
		t.Fatalf("sizing request served from the surface: %+v", sized)
	}
}

// TestSurfaceBatchAllOrNothing: a batch is answered from the surface
// only when every candidate is warm; a fresh candidate sends the whole
// batch back to the shared-sample kernel.
func TestSurfaceBatchAllOrNothing(t *testing.T) {
	sf := Surfaced{Cache: surface.New(surface.Options{})}
	breq := YieldBatchRequest{
		YieldRequest: YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(256), Seed: 3, TargetPS: Float(520)},
		Candidates:   []YieldCandidate{{RepeaterSize: 8, Repeaters: 10}, {RepeaterSize: 12, Repeaters: 8}},
	}
	first, err := sf.LinkYieldBatchCtx(context.Background(), breq)
	if err != nil {
		t.Fatal(err)
	}
	for c, r := range first.Results {
		if r.Source != SourceMC {
			t.Fatalf("cold batch candidate %d labeled %q", c, r.Source)
		}
	}
	warm, err := sf.LinkYieldBatchCtx(context.Background(), breq)
	if err != nil {
		t.Fatal(err)
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
	mixed, err := sf.LinkYieldBatchCtx(context.Background(), breq)
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
	sf := Surfaced{Cache: surface.New(surface.Options{})}
	mk := func(targetPS float64, noSurface bool) YieldResult {
		t.Helper()
		res, err := sf.LinkYieldCtx(context.Background(), YieldRequest{
			Tech: "90nm", LengthMM: 5, Samples: Int(2048), Seed: 5,
			TargetPS: Float(targetPS), NoSurface: noSurface,
			// A loose acceptance band so the interpolated answer is
			// served even across a wide bracketing gap.
			RelErr: Float(3),
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	mk(430, false) // bracket low
	mk(450, false) // bracket high
	warm := mk(440, false)
	if warm.Source != SourceSurface {
		t.Fatalf("bracketed query not interpolated from the surface: %+v", warm)
	}
	mc := mk(440, true) // fresh full MC at the same target
	if diff := math.Abs(warm.FailProb - mc.FailProb); diff > warm.CI95+mc.CI95 {
		t.Fatalf("interpolated fail prob %g ± %g inconsistent with MC %g ± %g (diff %g)",
			warm.FailProb, warm.CI95, mc.FailProb, mc.CI95, diff)
	}
}
