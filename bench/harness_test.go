package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"testing"

	predint "repro"
	"repro/internal/surface"
)

// bodies returns the first n request bodies a workload sends at seed.
func bodies(t *testing.T, w workload, seed uint64, n int) [][]byte {
	t.Helper()
	seq, err := w.newSeq(seed, w.warmup)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, n)
	for i := range out {
		_, sp, err := seq.request(i)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sp.raw
	}
	return out
}

func TestSequenceIsAFunctionOfTheSeed(t *testing.T) {
	// Past serve-warm's prewarm, far enough for its first misses.
	const n = 1500
	for _, w := range workloads {
		a, b, c := bodies(t, w, 1, n), bodies(t, w, 1, n), bodies(t, w, 2, n)
		same := true
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("%s: request %d differs between two sequences at seed 1:\n%s\n%s", w.name, i, a[i], b[i])
			}
			same = same && bytes.Equal(a[i], c[i])
		}
		if same {
			t.Errorf("%s: seeds 1 and 2 send the same %d requests", w.name, n)
		}
	}
}

func spanNames(spans []span) []string {
	var out []string
	for _, s := range spans {
		out = append(out, s.Name)
	}
	return out
}

// TestDecomposedChainMatchesFacade: the traced replay's chain of public
// calls — plan, collect, merge, result — answers bit for bit as the
// facade does on every shardable rung, and with the surface on, its
// record makes the next probe answer with the same estimate.
func TestDecomposedChainMatchesFacade(t *testing.T) {
	ctx := context.Background()
	f, err := newFixture()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range scaleRungs {
		req := f.request(r.estimator, r.sigmas[0], 4096)
		b := body{
			Tech: req.Tech, LengthMM: req.LengthMM, TargetPS: req.TargetPS, Samples: req.Samples,
			Seed: 7, Workers: 1, Estimator: req.Estimator, NoSurface: true,
		}
		want, err := predint.Surfaced{}.LinkYieldCtx(ctx, b.yieldRequest())
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		got, err := replay(ctx, tr, 0, &spec{body: b}, predint.Surfaced{})
		if err != nil {
			t.Fatal(err)
		}
		if got.single != want {
			t.Fatalf("%s: decomposed chain\n%+v\nfacade\n%+v", r.estimator, got.single, want)
		}
		if names := spanNames(tr.spans); len(names) != 4 || names[0] != "request" || names[2] != "collect" {
			t.Fatalf("%s: spans %v, want request, plan, collect, merge", r.estimator, names)
		}

		b.NoSurface = false
		sf := predint.Surfaced{Cache: surface.New(surface.Options{})}
		tr = newTracer()
		first, err := replay(ctx, tr, 0, &spec{body: b}, sf)
		if err != nil {
			t.Fatal(err)
		}
		second, err := replay(ctx, tr, 1, &spec{body: b}, sf)
		if err != nil {
			t.Fatal(err)
		}
		if first.single != want {
			t.Fatalf("%s: sampled answer through the surface tier\n%+v\nfacade\n%+v", r.estimator, first.single, want)
		}
		if second.single.Source != predint.SourceSurface {
			t.Fatalf("%s: second query answered by %q, want the surface", r.estimator, second.single.Source)
		}
		if err := sameResult(dtoOf(second.single), want); err != nil {
			t.Fatalf("%s: %v", r.estimator, err)
		}
		for _, s := range tr.spans {
			if s.Parent != 0 && tr.spans[s.Parent-1].Req != s.Req {
				t.Fatalf("%s: span %+v under another request's root", r.estimator, s)
			}
		}
	}
}

func TestCheckComparesEveryBit(t *testing.T) {
	f, err := newFixture()
	if err != nil {
		t.Fatal(err)
	}
	req := f.request("mc", 2, 1024)
	sp := &spec{body: body{Tech: req.Tech, LengthMM: req.LengthMM, TargetPS: req.TargetPS, Samples: req.Samples, Seed: 3, Workers: 1}}
	g := computeGolden(sp)
	if g.err != nil {
		t.Fatal(g.err)
	}
	encode := func(mut func(*resultDTO)) []byte {
		d := dtoOf(g.single)
		mut(&d)
		raw, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	if err := check(sp, g, encode(func(*resultDTO) {})); err != nil {
		t.Errorf("the golden itself: %v", err)
	}
	fromSurface := func(d *resultDTO) { d.Source, d.VarianceReduction = predint.SourceSurface, 0 }
	if err := check(sp, g, encode(fromSurface)); err != nil {
		t.Errorf("the surface tier's answer: %v", err)
	}
	for name, mut := range map[string]func(*resultDTO){
		"last bit of fail_prob": func(d *resultDTO) { d.FailProb = math.Nextafter(d.FailProb, 1) },
		"samples":               func(d *resultDTO) { d.Samples++ },
		"degraded":              func(d *resultDTO) { d.Degraded = true },
		"estimator":             func(d *resultDTO) { d.Estimator = "qmc" },
	} {
		if err := check(sp, g, encode(mut)); err == nil {
			t.Errorf("a changed %s passed the check", name)
		}
	}
}

// TestAISSplitReconciles: the AIS split's per-sample steps sum to the
// rung's own time per sample within 15%. Both sides are wall times on
// a possibly shared machine, so a noisy attempt is retried.
func TestAISSplitReconciles(t *testing.T) {
	f, err := newFixture()
	if err != nil {
		t.Fatal(err)
	}
	var ratio float64
	for attempt := 0; attempt < 3; attempt++ {
		if _, ratio, err = aisSplit(context.Background(), f); err != nil {
			t.Fatal(err)
		}
		if math.Abs(ratio-1) <= 0.15 {
			return
		}
	}
	t.Fatalf("AIS split sums to %.3f of the rung's time per sample, want within 15%%", ratio)
}
