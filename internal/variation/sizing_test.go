package variation

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"repro/internal/buffering"
	"repro/internal/estimator"
	"repro/internal/model"
	"repro/internal/tech"
	"repro/internal/wire"
)

// referenceSizeForYield is the full sweep the sizing walk must agree
// with: the nominal design estimated alone to its budget, then, if it
// misses, every feasible candidate in one shared-sample pass to the
// budget, and the cheapest candidate whose estimate reaches the target
// wins.
func referenceSizeForYield(ctx context.Context, base *tech.Technology, seg wire.Segment, o SizingOptions) (SizedDesign, error) {
	if o.Target <= 0 {
		return SizedDesign{}, fmt.Errorf("variation: non-positive delay target %g", o.Target)
	}
	if o.YieldTarget <= 0 || o.YieldTarget >= 1 {
		return SizedDesign{}, fmt.Errorf("variation: yield target %g outside (0,1)", o.YieldTarget)
	}
	if err := o.Space.Validate(); err != nil {
		return SizedDesign{}, err
	}
	nominal, err := buffering.Optimize(seg, o.Buffering)
	if err != nil {
		return SizedDesign{}, err
	}
	est, err := EstimateLinkYieldCtx(ctx, &LinkScenario{
		Base:   base,
		Coeffs: o.Buffering.Coeffs,
		Space:  o.Space,
		Spec:   lineSpec(nominal, seg, o.Buffering),
		Target: o.Target,
	}, o.MC)
	if err != nil {
		return SizedDesign{}, err
	}
	if est.Yield >= o.YieldTarget {
		return SizedDesign{Design: nominal, Estimate: est, Nominal: nominal}, nil
	}
	if err := ctx.Err(); err != nil {
		return SizedDesign{}, err
	}
	cands, err := buffering.Candidates(seg, o.Buffering)
	if err != nil {
		return SizedDesign{}, err
	}
	feasible := make([]buffering.Design, 0, maxCandidates)
	overBudget := false
	for _, d := range cands {
		if d.Delay > o.Target {
			continue
		}
		if len(feasible) >= maxCandidates {
			overBudget = true
			break
		}
		feasible = append(feasible, d)
	}
	if len(feasible) == 0 {
		return SizedDesign{}, fmt.Errorf("%w (searched %d candidates)", buffering.ErrNoFeasibleDesign, len(cands))
	}
	specs := make([]model.LineSpec, len(feasible))
	for c, d := range feasible {
		specs[c] = lineSpec(d, seg, o.Buffering)
	}
	ests, err := EstimateYieldsSharedCtx(ctx, &MultiScenario{
		Base:   base,
		Coeffs: o.Buffering.Coeffs,
		Space:  o.Space,
		Specs:  specs,
		Target: o.Target,
	}, o.MC)
	if err != nil {
		return SizedDesign{}, err
	}
	for c, e := range ests {
		if e.Yield >= o.YieldTarget {
			des := feasible[c]
			resized := des.Size != nominal.Size || des.N != nominal.N || des.Kind != nominal.Kind
			return SizedDesign{Design: des, Estimate: e, Nominal: nominal, Resized: resized}, nil
		}
	}
	if overBudget {
		return SizedDesign{}, fmt.Errorf("%w (budget of %d candidates exhausted)", ErrYieldUnreachable, maxCandidates)
	}
	return SizedDesign{}, fmt.Errorf("%w (none of %d feasible candidates reaches yield %g)",
		ErrYieldUnreachable, len(feasible), o.YieldTarget)
}

// TestSizingMatchesReference draws random searches — technology,
// length, delay and yield targets, rung, RelErr, budget, seed and
// worker count — and requires the walk to return
// exactly what the full reference sweep returns.
func TestSizingMatchesReference(t *testing.T) {
	runs := 100
	if testing.Short() || raceEnabled {
		runs = 12
	}
	rng := rand.New(rand.NewSource(16))
	techs := []string{"90nm", "65nm", "45nm", "32nm", "22nm", "16nm"}
	yts := []float64{0.9, 0.99, 0.995, 0.999, 0.9999}
	rungs := []estimator.Kind{estimator.Auto, estimator.MC, estimator.ISLE, estimator.QMC}
	for i := 0; i < runs; i++ {
		l := newSizingLink(t, techs[rng.Intn(len(techs))], 1+8*rng.Float64())
		mc := YieldOptions{
			Samples:   []int{512, 1000, 2048}[rng.Intn(3)],
			Seed:      rng.Uint64(),
			Estimator: rungs[rng.Intn(len(rungs))],
			Workers:   1 + rng.Intn(4),
		}
		if rng.Intn(2) == 0 {
			mc.RelErr = 0.2
		}
		yt := yts[rng.Intn(len(yts))]
		o := l.options(l.missFactor(t, rng, yt), yt, mc)
		name := fmt.Sprintf("run %d (%s %gmm, target %g, yield %g, %+v)",
			i, l.tc.Name, l.seg.Length*1e3, o.Target, o.YieldTarget, o.MC)
		want, wantErr := referenceSizeForYield(context.Background(), l.tc, l.seg, o)
		got, gotErr := SizeForYieldCtx(context.Background(), l.tc, l.seg, o)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %s\nwant %s", name, sizingSummary(got, gotErr), sizingSummary(want, wantErr))
		}
	}
}

// missFactor draws a delay target, as a multiple of the nominal delay,
// near where the nominal design starts to miss yieldTarget: the
// nominal's delay quantile, over 1000 draws, at a failure share of
// 0.5–4 times the budget 1 − yieldTarget. So the draws mix passing,
// resized and unreachable searches.
func (l sizingLink) missFactor(t testing.TB, rng *rand.Rand, yieldTarget float64) float64 {
	t.Helper()
	sc := &LinkScenario{Base: l.tc, Coeffs: l.opts.Coeffs, Space: DefaultSpace(), Spec: lineSpec(l.nominal, l.seg, l.opts), Target: 1}
	delays := make([]float64, 1000)
	z := make([]float64, Dims)
	for i := range delays {
		for d := range z {
			z[d] = rng.NormFloat64()
		}
		var err error
		if delays[i], err = sc.Delay(z); err != nil {
			t.Fatal(err)
		}
	}
	sort.Float64s(delays)
	fails := int((1 - yieldTarget) * (0.5 + 3.5*rng.Float64()) * float64(len(delays)))
	return delays[len(delays)-1-min(fails, len(delays)-1)] / l.nominal.Delay
}

// TestSizingNarrowWireKeepsErrors sizes a 36 nm wide 90 nm line with a
// 10% width sigma. 0.6 × 36 nm is under twice the 12 nm barrier, so a
// deep width draw leaves no copper core and fails validation. The walk
// turns the rejection bound off there, and every outcome, the
// validation error included, must match the full sweep.
func TestSizingNarrowWireKeepsErrors(t *testing.T) {
	l := newSizingLink(t, "90nm", 2)
	l.seg.Width = 3 * l.tc.Barrier
	var err error
	if l.nominal, err = buffering.Optimize(l.seg, l.opts); err != nil {
		t.Fatal(err)
	}
	errs := 0
	for _, yt := range []float64{0.99, 0.999} {
		for _, factor := range []float64{1.02, 1.1, 1.3} {
			for seed := uint64(1); seed <= 2; seed++ {
				o := l.options(factor, yt, YieldOptions{Samples: 4096, Seed: seed})
				o.Space.WireWidthSigma = 0.1
				want, wantErr := referenceSizeForYield(context.Background(), l.tc, l.seg, o)
				got, gotErr := SizeForYieldCtx(context.Background(), l.tc, l.seg, o)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("yield %g, target ×%g, seed %d:\n got %s\nwant %s", yt, factor, seed, sizingSummary(got, gotErr), sizingSummary(want, wantErr))
				}
				if wantErr != nil && strings.Contains(wantErr.Error(), "no copper core") {
					errs++
				}
			}
		}
	}
	if errs == 0 {
		t.Fatal("no search hit the copper-core error — the fixture lost its teeth")
	}
}

// sizingMissFactors are delay targets, as multiples of the 90 nm 5 mm
// nominal delay, that the nominal design misses at each yield target
// while a resized design passes.
var sizingMissFactors = []struct {
	yt, factor float64
}{{0.999, 1.19}, {0.9999, 1.22}}

// TestSizingMissDrawsFewerSamples runs a missing query at workers 1, 4
// and GOMAXPROCS: every run returns the reference's answer, draws the
// same number of samples, retires and skips candidates, and draws fewer
// samples than the full sweep.
func TestSizingMissDrawsFewerSamples(t *testing.T) {
	l := newSizingLink(t, "90nm", 5)
	for _, m := range sizingMissFactors {
		o := l.options(m.factor, m.yt, YieldOptions{Samples: 4096, Seed: 1})
		before := metSamples.Value()
		want, err := referenceSizeForYield(context.Background(), l.tc, l.seg, o)
		if err != nil {
			t.Fatal(err)
		}
		full := metSamples.Value() - before
		if !want.Resized {
			t.Fatalf("yield %g: the nominal design passes — the query lost its miss", m.yt)
		}
		var drawn int64 = -1
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			o.MC.Workers = workers
			samples, rejected, unvisited := metSamples.Value(), metSizingRejected.Value(), metSizingUnvisited.Value()
			got, err := SizeForYieldCtx(context.Background(), l.tc, l.seg, o)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("yield %g workers=%d:\n got %s\nwant %s", m.yt, workers, sizingSummary(got, nil), sizingSummary(want, nil))
			}
			n := metSamples.Value() - samples
			if drawn >= 0 && n != drawn {
				t.Fatalf("yield %g workers=%d drew %d samples, want %d as at workers 1", m.yt, workers, n, drawn)
			}
			drawn = n
			if metSizingRejected.Value() == rejected || metSizingUnvisited.Value() == unvisited {
				t.Fatalf("yield %g: the walk neither rejected nor skipped a candidate", m.yt)
			}
		}
		if drawn >= full {
			t.Fatalf("yield %g: the walk drew %d samples, the full sweep %d", m.yt, drawn, full)
		}
		t.Logf("yield %g: %d samples, full sweep %d", m.yt, drawn, full)
	}
}

// TestSizingBankedSamples pins the sizing bank's counter: a missing
// search loads banked samples, the same number at workers 1 and 4, and
// scores as many candidate-samples (variation.samples_drawn) as the
// walk did before it had a bank; a passing search never loads one.
func TestSizingBankedSamples(t *testing.T) {
	l := newSizingLink(t, "90nm", 5)
	// Candidate-samples per search on the sizingMissFactors fixtures,
	// as measured before the bank existed.
	drawnBefore := []int64{6144, 5376}
	for i, m := range sizingMissFactors {
		var banked int64 = -1
		for _, workers := range []int{1, 4} {
			o := l.options(m.factor, m.yt, YieldOptions{Samples: 4096, Seed: 1, Workers: workers})
			samples, bank := metSamples.Value(), metSizingBanked.Value()
			got, err := SizeForYieldCtx(context.Background(), l.tc, l.seg, o)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Resized {
				t.Fatalf("yield %g: the nominal design passes — the query lost its miss", m.yt)
			}
			if n := metSamples.Value() - samples; n != drawnBefore[i] {
				t.Fatalf("yield %g workers=%d scored %d candidate-samples, want %d", m.yt, workers, n, drawnBefore[i])
			}
			n := metSizingBanked.Value() - bank
			if n == 0 {
				t.Fatalf("yield %g workers=%d: no sample came from the bank", m.yt, workers)
			}
			if banked >= 0 && n != banked {
				t.Fatalf("yield %g workers=%d banked %d samples, want %d as at workers 1", m.yt, workers, n, banked)
			}
			banked = n
		}
	}
	o := l.options(1.5, 0.999, YieldOptions{Samples: 4096, Seed: 1, Workers: 4})
	bank := metSizingBanked.Value()
	got, err := SizeForYieldCtx(context.Background(), l.tc, l.seg, o)
	if err != nil {
		t.Fatal(err)
	}
	if got.Resized {
		t.Fatal("the passing fixture resized")
	}
	if n := metSizingBanked.Value() - bank; n != 0 {
		t.Fatalf("a passing search loaded %d banked samples", n)
	}
}

// TestSizingBankConcurrentSearches runs two missing searches on
// different technologies and seeds concurrently, over and over, at
// workers 4, and holds every answer to the one each gives alone at
// workers 1. Each search takes its bank from a pool the other also
// returns to, so a bank that kept a previous search's prefix would hand
// one search the other's samples.
func TestSizingBankConcurrentSearches(t *testing.T) {
	type search struct {
		l    sizingLink
		o    SizingOptions
		want SizedDesign
	}
	a := newSizingLink(t, "90nm", 5)
	b := newSizingLink(t, "45nm", 4)
	searches := []*search{
		{l: a, o: a.options(sizingMissFactors[0].factor, sizingMissFactors[0].yt, YieldOptions{Samples: 4096, Seed: 1})},
		{l: b, o: b.options(1.18, 0.999, YieldOptions{Samples: 4096, Seed: 7})},
	}
	for _, s := range searches {
		bank := metSizingBanked.Value()
		var err error
		if s.want, err = SizeForYieldCtx(context.Background(), s.l.tc, s.l.seg, s.o); err != nil {
			t.Fatal(err)
		}
		if !s.want.Resized || metSizingBanked.Value() == bank {
			t.Fatalf("%s: the search does not use the bank — the fixture lost its teeth", s.l.tc.Name)
		}
		s.o.MC.Workers = 4
	}
	rounds := 8
	if testing.Short() {
		rounds = 2
	}
	errs := make(chan error, len(searches))
	for _, s := range searches {
		go func() {
			for r := 0; r < rounds; r++ {
				got, err := SizeForYieldCtx(context.Background(), s.l.tc, s.l.seg, s.o)
				if err != nil || !reflect.DeepEqual(got, s.want) {
					errs <- fmt.Errorf("%s round %d:\n got %s\nwant %s", s.l.tc.Name, r, sizingSummary(got, err), sizingSummary(s.want, nil))
					return
				}
			}
			errs <- nil
		}()
	}
	for range searches {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkSizeForYieldMiss times a missing query on the 90 nm 5 mm
// link, serially, and reports the candidate-samples it draws and the
// samples whose shared phases came from the search's bank.
func BenchmarkSizeForYieldMiss(b *testing.B) {
	l := newSizingLink(b, "90nm", 5)
	for _, m := range sizingMissFactors {
		o := l.options(m.factor, m.yt, YieldOptions{Samples: 4096, Seed: 1, Workers: 1})
		b.Run(fmt.Sprintf("yield=%g", m.yt), func(b *testing.B) {
			before, banked := metSamples.Value(), metSizingBanked.Value()
			for i := 0; i < b.N; i++ {
				if _, err := SizeForYieldCtx(context.Background(), l.tc, l.seg, o); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(metSamples.Value()-before)/float64(b.N), "cand-samples/op")
			b.ReportMetric(float64(metSizingBanked.Value()-banked)/float64(b.N), "banked-samples/op")
		})
	}
}
