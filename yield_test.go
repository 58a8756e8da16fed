package predint

import (
	"context"
	"strings"
	"testing"
)

// uncached is the facade with no surface cache bound: every query
// samples and nothing is recorded, as for a one-shot caller.
var uncached Surfaced

func TestLinkYieldBasic(t *testing.T) {
	res, err := uncached.LinkYieldCtx(context.Background(), YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(2048), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Repeaters <= 0 || res.RepeaterSize <= 0 {
		t.Fatalf("degenerate design: %+v", res)
	}
	if res.Yield < 0 || res.Yield > 1 || res.Yield+res.FailProb != 1 {
		t.Fatalf("yield/fail-prob inconsistent: %+v", res)
	}
	if res.Samples != 2048 {
		t.Fatalf("ran %d samples, want the full budget", res.Samples)
	}
	if res.Target <= 0 || res.NominalDelay <= 0 {
		t.Fatalf("missing delay fields: %+v", res)
	}
	if res.ImportanceSampled {
		t.Fatal("plain request reported as importance-sampled")
	}
}

// TestLinkYieldWorkerDeterminism is the facade-level acceptance test:
// identical requests differing only in Workers return bit-identical
// results.
func TestLinkYieldWorkerDeterminism(t *testing.T) {
	base := YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(2048), Seed: 1, TargetPS: Float(470)}
	for _, est := range []string{"", "isle"} {
		req := base
		req.Estimator = est
		req.Workers = 1
		serial, err := uncached.LinkYieldCtx(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		req.Workers = 8
		parallel, err := uncached.LinkYieldCtx(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if serial != parallel {
			t.Fatalf("estimator %q: Workers=8 diverged: %+v vs %+v", est, parallel, serial)
		}
	}
}

// TestLinkYieldSeedSensitivity pins the PRNG seed-family fix: distinct
// seeds must be independent replications, not permutations of the same
// sample set.
func TestLinkYieldSeedSensitivity(t *testing.T) {
	req := YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(2048), TargetPS: Float(470)}
	req.Seed = 1
	a, err := uncached.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Seed = 2
	b, err := uncached.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Fatalf("seeds 1 and 2 produced identical estimates: %+v", a)
	}
}

// TestLinkYieldExplicitZeroSigma: Float(0) disables variation instead
// of being rewritten to the default scale, so yield collapses to a
// 0/1 step around the target.
func TestLinkYieldExplicitZeroSigma(t *testing.T) {
	req := YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(256), Seed: 1, SigmaScale: Float(0)}
	res, err := uncached.LinkYieldCtx(context.Background(), req) // target = clock period, comfortably met
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield != 1 {
		t.Fatalf("zero-sigma yield %g with a met target, want exactly 1", res.Yield)
	}
	req.TargetPS = Float(res.NominalDelay*1e12 - 1)
	res, err = uncached.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield != 0 {
		t.Fatalf("zero-sigma yield %g with a missed target, want exactly 0", res.Yield)
	}
}

func TestLinkYieldResizesForTarget(t *testing.T) {
	nominal, err := uncached.LinkYieldCtx(context.Background(), YieldRequest{
		Tech: "90nm", LengthMM: 5, Samples: Int(2048), Seed: 1,
		PowerWeight: Float(0.8), TargetPS: Float(510),
		Estimator: "isle",
	})
	if err != nil {
		t.Fatal(err)
	}
	sized, err := uncached.LinkYieldCtx(context.Background(), YieldRequest{
		Tech: "90nm", LengthMM: 5, Samples: Int(2048), Seed: 1,
		PowerWeight: Float(0.8), TargetPS: Float(510),
		YieldTarget: Float(0.95),
		Estimator:   "isle",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sized.Resized {
		t.Fatal("yield target did not force a resize")
	}
	if sized.RepeaterSize == nominal.RepeaterSize && sized.Repeaters == nominal.Repeaters {
		t.Fatal("resized design identical to the nominal one")
	}
	if sized.Yield < 0.95 {
		t.Fatalf("resized yield %g below the 0.95 target", sized.Yield)
	}
	if nominal.Yield >= 0.95 {
		t.Fatalf("nominal yield %g already met the target — scenario lost its teeth", nominal.Yield)
	}
}

func TestLinkYieldValidation(t *testing.T) {
	ok := YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(64)}
	for name, mutate := range map[string]func(*YieldRequest){
		"unknown-tech":     func(r *YieldRequest) { r.Tech = "13nm" },
		"zero-length":      func(r *YieldRequest) { r.LengthMM = 0 },
		"bad-style":        func(r *YieldRequest) { r.Style = "braided" },
		"weight-one":       func(r *YieldRequest) { r.PowerWeight = Float(1) },
		"zero-slew":        func(r *YieldRequest) { r.InputSlewPS = Float(0) },
		"zero-target":      func(r *YieldRequest) { r.TargetPS = Float(0) },
		"zero-samples":     func(r *YieldRequest) { r.Samples = Int(0) },
		"negative-relerr":  func(r *YieldRequest) { r.RelErr = Float(-0.1) },
		"negative-abserr":  func(r *YieldRequest) { r.AbsErr = Float(-0.1) },
		"negative-sigma":   func(r *YieldRequest) { r.SigmaScale = Float(-1) },
		"yield-target-one": func(r *YieldRequest) { r.YieldTarget = Float(1) },
	} {
		req := ok
		mutate(&req)
		if _, err := uncached.LinkYieldCtx(context.Background(), req); err == nil {
			t.Errorf("%s: invalid request accepted", name)
		} else if !strings.Contains(err.Error(), ":") {
			t.Errorf("%s: error %q lacks a package prefix", name, err)
		}
		// The degraded path shares the plan, so it must reject the
		// same requests.
		if _, err := LinkYieldNominalCtx(context.Background(), req); err == nil {
			t.Errorf("%s: degraded path accepted an invalid request", name)
		}
	}
}

// TestLinkYieldNominalMatchesFullPath: the degraded result evaluates
// the same design the Monte Carlo path would — same repeater solution,
// and a nominal delay that agrees with the full estimator's (both are
// model.ScaledFor at the nominal corner, where scaling is the
// identity).
func TestLinkYieldNominalMatchesFullPath(t *testing.T) {
	req := YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(256), Seed: 1}
	full, err := uncached.LinkYieldCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	deg, err := LinkYieldNominalCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Repeaters != full.Repeaters || deg.RepeaterSize != full.RepeaterSize {
		t.Fatalf("degraded design (%d, %g) diverged from full (%d, %g)",
			deg.Repeaters, deg.RepeaterSize, full.Repeaters, full.RepeaterSize)
	}
	if deg.NominalDelay != full.NominalDelay {
		t.Fatalf("degraded nominal delay %g != full-path %g", deg.NominalDelay, full.NominalDelay)
	}
	if !deg.Degraded || full.Degraded {
		t.Fatalf("Degraded markers wrong: degraded=%v full=%v", deg.Degraded, full.Degraded)
	}
}

// TestLinkYieldBatchMatchesSingle pins the batch API's headline
// guarantee: scoring the single-link path's own designed solution as
// an explicit batch candidate — alongside a competitor, on shared
// samples — returns the bit-identical estimate the standalone request
// produced, for both estimators.
func TestLinkYieldBatchMatchesSingle(t *testing.T) {
	for _, est := range []string{"", "isle"} {
		req := YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(1024), Seed: 1, TargetPS: Float(470), Estimator: est}
		single, err := uncached.LinkYieldCtx(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := uncached.LinkYieldBatchCtx(context.Background(), YieldBatchRequest{
			YieldRequest: req,
			Candidates: []YieldCandidate{
				{RepeaterSize: single.RepeaterSize, Repeaters: single.Repeaters},
				{RepeaterSize: 8, Repeaters: 12},
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Results) != 2 {
			t.Fatalf("estimator %q: %d results for 2 candidates", est, len(batch.Results))
		}
		got := batch.Results[0]
		if got.Yield != single.Yield || got.FailProb != single.FailProb || got.StdErr != single.StdErr ||
			got.Samples != single.Samples || got.NominalDelay != single.NominalDelay || got.Target != single.Target {
			t.Fatalf("estimator %q: batch candidate 0 diverged from the standalone run:\n got %+v\nwant %+v", est, got, single)
		}
		if got.ImportanceSampled != single.ImportanceSampled {
			t.Fatalf("estimator %q: markers diverged: batch %v, single %v", est, got.ImportanceSampled, single.ImportanceSampled)
		}
	}
}

// TestLinkYieldBatchWorkerDeterminism extends the bit-identical
// Workers contract to the batch path.
func TestLinkYieldBatchWorkerDeterminism(t *testing.T) {
	req := YieldBatchRequest{
		YieldRequest: YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(1024), Seed: 7, TargetPS: Float(470)},
		Candidates:   []YieldCandidate{{RepeaterSize: 8, Repeaters: 10}, {RepeaterSize: 12, Repeaters: 8}},
	}
	req.Workers = 1
	serial, err := uncached.LinkYieldBatchCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	req.Workers = 8
	parallel, err := uncached.LinkYieldBatchCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for c := range serial.Results {
		if serial.Results[c] != parallel.Results[c] {
			t.Fatalf("candidate %d: Workers=8 diverged: %+v vs %+v", c, parallel.Results[c], serial.Results[c])
		}
	}
}

func TestLinkYieldBatchValidation(t *testing.T) {
	ok := YieldBatchRequest{
		YieldRequest: YieldRequest{Tech: "90nm", LengthMM: 5, Samples: Int(64)},
		Candidates:   []YieldCandidate{{RepeaterSize: 8, Repeaters: 10}},
	}
	for name, mutate := range map[string]func(*YieldBatchRequest){
		"yield-target":   func(r *YieldBatchRequest) { r.YieldTarget = Float(0.95) },
		"no-candidates":  func(r *YieldBatchRequest) { r.Candidates = nil },
		"zero-size":      func(r *YieldBatchRequest) { r.Candidates = []YieldCandidate{{RepeaterSize: 0, Repeaters: 10}} },
		"zero-repeaters": func(r *YieldBatchRequest) { r.Candidates = []YieldCandidate{{RepeaterSize: 8, Repeaters: 0}} },
		"unknown-tech":   func(r *YieldBatchRequest) { r.Tech = "13nm" },
	} {
		req := ok
		mutate(&req)
		if _, err := uncached.LinkYieldBatchCtx(context.Background(), req); err == nil {
			t.Errorf("%s: invalid batch request accepted", name)
		}
		// The degraded path shares the validation.
		if _, err := LinkYieldBatchNominalCtx(context.Background(), req); err == nil {
			t.Errorf("%s: degraded batch path accepted an invalid request", name)
		}
	}
	// Candidate errors name the offending candidate.
	req := ok
	req.Candidates = []YieldCandidate{{RepeaterSize: 8, Repeaters: 10}, {RepeaterSize: -1, Repeaters: 10}}
	if _, err := uncached.LinkYieldBatchCtx(context.Background(), req); err == nil || !strings.Contains(err.Error(), "candidate 1") {
		t.Errorf("bad second candidate: error %v does not name candidate 1", err)
	}
}

// TestLinkYieldBatchNominalContract mirrors TestLinkYieldNominalContract
// for the batch degradation path: every candidate gets the single
// closed-form evaluation, the 0/1 yield step, and the vacuous bound.
func TestLinkYieldBatchNominalContract(t *testing.T) {
	req := YieldBatchRequest{
		YieldRequest: YieldRequest{Tech: "90nm", LengthMM: 5},
		Candidates:   []YieldCandidate{{RepeaterSize: 60, Repeaters: 2}, {RepeaterSize: 4, Repeaters: 1}},
	}
	res, err := LinkYieldBatchNominalCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	full, err := uncached.LinkYieldBatchCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for c, r := range res.Results {
		if !r.Degraded || r.Samples != 1 || r.FailProbBound != 1 {
			t.Fatalf("candidate %d degraded contract broken: %+v", c, r)
		}
		if r.Yield != 0 && r.Yield != 1 {
			t.Fatalf("candidate %d: degraded yield %g is not a 0/1 step", c, r.Yield)
		}
		if r.NominalDelay != full.Results[c].NominalDelay {
			t.Fatalf("candidate %d: degraded nominal delay %g != full-path %g", c, r.NominalDelay, full.Results[c].NominalDelay)
		}
	}
	// The tiny single-repeater candidate misses the clock-period target
	// outright; the designed-size one meets it — the step discriminates.
	if res.Results[0].Yield != 1 || res.Results[1].Yield != 0 {
		t.Fatalf("degraded step did not discriminate the candidates: %+v", res.Results)
	}
}

// TestLinkYieldNominalContract pins the degraded-response contract the
// serving layer documents: a 0/1 yield step around the target, a
// single evaluation, and the vacuous rule-of-three bound.
func TestLinkYieldNominalContract(t *testing.T) {
	req := YieldRequest{Tech: "90nm", LengthMM: 5} // target = clock period, comfortably met
	res, err := LinkYieldNominalCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Yield != 1 || res.FailProb != 0 {
		t.Fatalf("met target: yield %g / fail %g, want exactly 1 / 0", res.Yield, res.FailProb)
	}
	if res.Samples != 1 {
		t.Fatalf("degraded result claims %d samples, want 1", res.Samples)
	}
	if res.FailProbBound != 1 {
		t.Fatalf("rule-of-three bound %g at n=1, want 1", res.FailProbBound)
	}
	if res.Resized || res.ImportanceSampled {
		t.Fatalf("degraded result claims sampling work: %+v", res)
	}

	req.TargetPS = Float(res.NominalDelay*1e12 - 1)
	miss, err := LinkYieldNominalCtx(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if miss.Yield != 0 || miss.FailProb != 1 {
		t.Fatalf("missed target: yield %g / fail %g, want exactly 0 / 1", miss.Yield, miss.FailProb)
	}
}
