package variation

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/buffering"
	"repro/internal/estimator"
	"repro/internal/model"
	"repro/internal/tech"
	"repro/internal/wire"
)

// sizingLink is one fixture link of the sizing tests: a technology's
// global SWSS line of the given length, buffered with the facade's
// default objective (power weight 0.5, activity 0.15, 300 ps input
// slew).
type sizingLink struct {
	tc      *tech.Technology
	seg     wire.Segment
	opts    buffering.Options
	nominal buffering.Design
}

func newSizingLink(t testing.TB, techName string, mm float64) sizingLink {
	t.Helper()
	tc := tech.MustLookup(techName)
	l := sizingLink{
		tc:  tc,
		seg: wire.NewSegment(tc, mm*1e-3, wire.SWSS),
		opts: buffering.Options{
			Coeffs:      model.MustDefault(techName),
			InputSlew:   300e-12,
			Power:       model.PowerParams{Activity: 0.15, Freq: tc.Clock},
			PowerWeight: 0.5,
		},
	}
	var err error
	if l.nominal, err = buffering.Optimize(l.seg, l.opts); err != nil {
		t.Fatal(err)
	}
	return l
}

// options returns the search options for a delay target of factor
// times the nominal design's delay.
func (l sizingLink) options(factor, yieldTarget float64, mc YieldOptions) SizingOptions {
	return SizingOptions{
		Buffering:   l.opts,
		Space:       DefaultSpace(),
		Target:      l.nominal.Delay * factor,
		YieldTarget: yieldTarget,
		MC:          mc,
	}
}

// sizingSummary renders a search outcome exactly: the chosen design's
// identity, every Estimate field (%v prints the shortest float that
// round-trips) and Resized, or the error text.
func sizingSummary(s SizedDesign, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	e := s.Estimate
	return fmt.Sprintf("%s%gx%d p=%v y=%v se=%v n=%d shifted=%t %s vr=%v resized=%t",
		s.Design.Kind, s.Design.Size, s.Design.N, e.FailProb, e.Yield, e.StdErr, e.Samples,
		e.Shifted, e.Estimator, e.VarianceReduction, s.Resized)
}

// checkSizedDesigns pins the rest of a SizedDesign: Nominal is the
// weighted-objective design, and Design is that design when not resized
// and otherwise the candidate grid's entry for the chosen kind, size
// and count.
func checkSizedDesigns(t *testing.T, l sizingLink, s SizedDesign) {
	t.Helper()
	if s.Nominal != l.nominal {
		t.Fatalf("Nominal %+v, want %+v", s.Nominal, l.nominal)
	}
	want := l.nominal
	if s.Resized {
		cands, err := buffering.Candidates(l.seg, l.opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range cands {
			if d.Kind == s.Design.Kind && d.Size == s.Design.Size && d.N == s.Design.N {
				want = d
			}
		}
	}
	if s.Design != want {
		t.Fatalf("Design %+v, want %+v", s.Design, want)
	}
}

type sizingGoldenCase struct {
	name string
	link sizingLink
	o    SizingOptions
}

// sizingGoldenCases are the searches TestSizingGolden pins. The base
// grid crosses three technologies, two lengths and three yield targets
// with three delay targets: at "tight" plain MC finds no design that
// reaches the yield target, at "miss" the nominal design misses and a
// resized one passes, at "loose" the nominal passes (plain MC, RelErr
// 0). Variants on two links
// cover the isle/qmc/ais rungs and auto routing by TargetSigma (below
// and inside the WCD cascade), RelErr 0.2, a batch-unaligned budget, an
// exhausted candidate budget, an infeasible target and the validation
// errors.
func sizingGoldenCases(t testing.TB) []sizingGoldenCase {
	mc := YieldOptions{Samples: 4096, Seed: 1}
	var cases []sizingGoldenCase
	links := map[string]sizingLink{}
	link := func(techName string, mm float64) sizingLink {
		key := fmt.Sprintf("%s-%gmm", techName, mm)
		if l, ok := links[key]; ok {
			return l
		}
		l := newSizingLink(t, techName, mm)
		links[key] = l
		return l
	}
	add := func(l sizingLink, name string, o SizingOptions) {
		cases = append(cases, sizingGoldenCase{name, l, o})
	}
	for _, row := range []struct {
		tech               string
		mm, yt             float64
		tight, miss, loose float64
	}{
		{"90nm", 2, 0.99, 1.10, 1.15, 1.20},
		{"90nm", 2, 0.999, 1.15, 1.21, 1.26},
		{"90nm", 2, 0.9999, 1.18, 1.24, 1.30},
		{"90nm", 6, 0.99, 1.10, 1.12, 1.15},
		{"90nm", 6, 0.999, 1.15, 1.17, 1.20},
		{"90nm", 6, 0.9999, 1.15, 1.19, 1.24},
		{"45nm", 2, 0.99, 1.10, 1.12, 1.15},
		{"45nm", 2, 0.999, 1.14, 1.16, 1.20},
		{"45nm", 2, 0.9999, 1.15, 1.18, 1.22},
		{"45nm", 6, 0.99, 1.12, 1.16, 1.20},
		{"45nm", 6, 0.999, 1.18, 1.21, 1.25},
		{"45nm", 6, 0.9999, 1.18, 1.24, 1.30},
		{"16nm", 2, 0.99, 1.15, 1.20, 1.25},
		{"16nm", 2, 0.999, 1.24, 1.28, 1.35},
		{"16nm", 2, 0.9999, 1.30, 1.35, 1.40},
		{"16nm", 6, 0.99, 1.15, 1.20, 1.25},
		{"16nm", 6, 0.999, 1.24, 1.28, 1.32},
		{"16nm", 6, 0.9999, 1.30, 1.35, 1.40},
	} {
		l := link(row.tech, row.mm)
		for _, f := range []struct {
			outcome string
			factor  float64
		}{{"tight", row.tight}, {"miss", row.miss}, {"loose", row.loose}} {
			add(l, fmt.Sprintf("%s-%gmm-y%g-%s", row.tech, row.mm, row.yt, f.outcome), l.options(f.factor, row.yt, mc))
		}
	}

	for _, v := range []struct {
		tech               string
		mm, yt             float64
		tight, miss, loose float64
	}{
		{"90nm", 6, 0.999, 1.15, 1.17, 1.20},
		{"45nm", 2, 0.99, 1.10, 1.12, 1.15},
	} {
		l := link(v.tech, v.mm)
		pre := fmt.Sprintf("%s-%gmm-y%g", v.tech, v.mm, v.yt)
		for _, relErr := range []float64{0, 0.2} {
			for _, rung := range []struct {
				name string
				o    YieldOptions
			}{
				{"mc", YieldOptions{Samples: 4096, Seed: 1}},
				{"isle", YieldOptions{Samples: 4096, Seed: 1, Estimator: estimator.ISLE}},
				{"qmc", YieldOptions{Samples: 4096, Seed: 1, Estimator: estimator.QMC}},
				{"ais", YieldOptions{Samples: 2048, Seed: 1, Estimator: estimator.AIS}},
				{"sigma2.5", YieldOptions{Samples: 4096, Seed: 1, TargetSigma: 2.5}},
				{"sigma3.5", YieldOptions{Samples: 4096, Seed: 1, TargetSigma: 3.5}},
			} {
				o := rung.o
				o.RelErr = relErr
				for _, f := range []struct {
					outcome string
					factor  float64
				}{{"tight", v.tight}, {"miss", v.miss}, {"loose", v.loose}} {
					if rung.name == "ais" && f.outcome == "tight" {
						continue // nothing retires AIS runs: every feasible candidate would run
					}
					add(l, fmt.Sprintf("%s-%s-relerr%g-%s", pre, rung.name, relErr, f.outcome), l.options(f.factor, v.yt, o))
				}
			}
		}
		// Budgets that are not a multiple of the batch, and another seed.
		add(l, pre+"-unaligned-miss", l.options(v.miss, v.yt, YieldOptions{Samples: 1000, Batch: 96, Seed: 7}))
		add(l, pre+"-unaligned-tight", l.options(v.tight, v.yt, YieldOptions{Samples: 1000, Batch: 96, Seed: 7}))
		o := l.options(v.tight, v.yt, mc)
		o.MaxCandidates = 6
		add(l, pre+"-exhausted", o)
		add(l, pre+"-infeasible", l.options(0.5, v.yt, mc))
	}

	l := link("90nm", 6)
	add(l, "error-target", l.options(0, 0.999, mc))
	add(l, "error-yield-target", l.options(1.17, 1, mc))
	add(l, "error-negative-batch", l.options(1.17, 0.999, YieldOptions{Batch: -1}))
	add(l, "error-estimator", l.options(1.17, 0.999, YieldOptions{Estimator: "bogus"}))
	return cases
}

// TestSizingGolden pins every search of sizingGoldenCases, at workers 1,
// 4 and GOMAXPROCS, to sizingGolden: the SizedDesign bit for bit or the
// error text.
func TestSizingGolden(t *testing.T) {
	for _, c := range sizingGoldenCases(t) {
		want, ok := sizingGolden[c.name]
		if !ok {
			t.Fatalf("%s: no golden outcome", c.name)
		}
		for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
			o := c.o
			o.MC.Workers = workers
			s, err := SizeForYieldCtx(context.Background(), c.link.tc, c.link.seg, o)
			if got := sizingSummary(s, err); got != want {
				t.Fatalf("%s workers=%d:\n got %s\nwant %s", c.name, workers, got, want)
			}
			if err == nil {
				checkSizedDesigns(t, c.link, s)
			}
		}
	}
}

// sizingGolden holds the outcome of each sizingGoldenCases search as the
// search before early rejection computed it: the nominal design
// estimated alone, then every feasible candidate in one shared-sample
// pass to the full budget.
var sizingGolden = map[string]string{
	"90nm-2mm-y0.99-tight":                     "error: variation: no buffering candidate meets the yield target (none of 6 feasible candidates reaches yield 0.99)",
	"90nm-2mm-y0.99-miss":                      "INV80x1 p=0.004882812499999992 y=0.9951171875 se=0.0010892941831113204 n=4096 shifted=false mc vr=0.9997558593749971 resized=true",
	"90nm-2mm-y0.99-loose":                     "INV60x1 p=0.0029296875000000026 y=0.9970703125 se=0.0008445912712204758 n=4096 shifted=false mc vr=0.9997558593749988 resized=false",
	"90nm-2mm-y0.999-tight":                    "error: variation: no buffering candidate meets the yield target (none of 6 feasible candidates reaches yield 0.999)",
	"90nm-2mm-y0.999-miss":                     "INV80x1 p=0.000488281250000001 y=0.99951171875 se=0.00034522482328645224 n=4096 shifted=false mc vr=0.9997558593750007 resized=true",
	"90nm-2mm-y0.999-loose":                    "INV60x1 p=0.0002441406250000013 y=0.999755859375 se=0.0002441406250000001 n=4096 shifted=false mc vr=0.9997558593750044 resized=false",
	"90nm-2mm-y0.9999-tight":                   "error: variation: no buffering candidate meets the yield target (none of 8 feasible candidates reaches yield 0.9999)",
	"90nm-2mm-y0.9999-miss":                    "INV80x1 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=true",
	"90nm-2mm-y0.9999-loose":                   "INV60x1 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=false",
	"90nm-6mm-y0.99-tight":                     "error: variation: no buffering candidate meets the yield target (none of 21 feasible candidates reaches yield 0.99)",
	"90nm-6mm-y0.99-miss":                      "INV80x2 p=0.0061035156250000165 y=0.993896484375 se=0.0012171207163215129 n=4096 shifted=false mc vr=0.9997558593750036 resized=true",
	"90nm-6mm-y0.99-loose":                     "INV60x2 p=0.006347656249999999 y=0.99365234375 se=0.0012410720001006796 n=4096 shifted=false mc vr=0.9997558593750013 resized=false",
	"90nm-6mm-y0.999-tight":                    "error: variation: no buffering candidate meets the yield target (none of 26 feasible candidates reaches yield 0.999)",
	"90nm-6mm-y0.999-miss":                     "INV80x2 p=0.0004882812500000009 y=0.99951171875 se=0.00034522482328645197 n=4096 shifted=false mc vr=0.9997558593750019 resized=true",
	"90nm-6mm-y0.999-loose":                    "INV60x2 p=0.0004882812500000009 y=0.99951171875 se=0.00034522482328645197 n=4096 shifted=false mc vr=0.9997558593750019 resized=false",
	"90nm-6mm-y0.9999-tight":                   "error: variation: no buffering candidate meets the yield target (none of 26 feasible candidates reaches yield 0.9999)",
	"90nm-6mm-y0.9999-miss":                    "INV80x2 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=true",
	"90nm-6mm-y0.9999-loose":                   "INV60x2 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=false",
	"45nm-2mm-y0.99-tight":                     "error: variation: no buffering candidate meets the yield target (none of 12 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-miss":                      "INV120x1 p=0.007080078125000008 y=0.992919921875 se=0.0013102349628264832 n=4096 shifted=false mc vr=0.9997558593750018 resized=true",
	"45nm-2mm-y0.99-loose":                     "INV80x1 p=0.003417968750000004 y=0.99658203125 se=0.0009120394352943947 n=4096 shifted=false mc vr=0.9997558593750008 resized=false",
	"45nm-2mm-y0.999-tight":                    "error: variation: no buffering candidate meets the yield target (none of 16 feasible candidates reaches yield 0.999)",
	"45nm-2mm-y0.999-miss":                     "INV120x1 p=0.0007324218750000008 y=0.999267578125 se=0.000422760690596127 n=4096 shifted=false mc vr=0.9997558593750006 resized=true",
	"45nm-2mm-y0.999-loose":                    "INV80x1 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=false",
	"45nm-2mm-y0.9999-tight":                   "error: variation: no buffering candidate meets the yield target (none of 16 feasible candidates reaches yield 0.9999)",
	"45nm-2mm-y0.9999-miss":                    "INV120x1 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=true",
	"45nm-2mm-y0.9999-loose":                   "INV80x1 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=false",
	"45nm-6mm-y0.99-tight":                     "error: variation: no buffering candidate meets the yield target (none of 36 feasible candidates reaches yield 0.99)",
	"45nm-6mm-y0.99-miss":                      "INV120x4 p=0.006591796875000003 y=0.993408203125 se=0.0012645582113256768 n=4096 shifted=false mc vr=0.9997558593749999 resized=true",
	"45nm-6mm-y0.99-loose":                     "INV80x4 p=0.0029296875000000095 y=0.9970703125 se=0.0008445912712204753 n=4096 shifted=false mc vr=0.9997558593750021 resized=false",
	"45nm-6mm-y0.999-tight":                    "error: variation: no buffering candidate meets the yield target (budget of 48 candidates exhausted)",
	"45nm-6mm-y0.999-miss":                     "INV120x3 p=0.0004882812500000021 y=0.99951171875 se=0.00034522482328645197 n=4096 shifted=false mc vr=0.9997558593750044 resized=true",
	"45nm-6mm-y0.999-loose":                    "INV80x4 p=0.0004882812500000009 y=0.99951171875 se=0.00034522482328645197 n=4096 shifted=false mc vr=0.9997558593750019 resized=false",
	"45nm-6mm-y0.9999-tight":                   "error: variation: no buffering candidate meets the yield target (budget of 48 candidates exhausted)",
	"45nm-6mm-y0.9999-miss":                    "INV120x3 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=true",
	"45nm-6mm-y0.9999-loose":                   "INV80x4 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=false",
	"16nm-2mm-y0.99-tight":                     "error: variation: no buffering candidate meets the yield target (budget of 48 candidates exhausted)",
	"16nm-2mm-y0.99-miss":                      "INV60x10 p=0.008300781249999983 y=0.99169921875 se=0.0014178246317365524 n=4096 shifted=false mc vr=0.9997558593749968 resized=true",
	"16nm-2mm-y0.99-loose":                     "INV40x10 p=0.006103515624999999 y=0.993896484375 se=0.0012171207163215137 n=4096 shifted=false mc vr=0.9997558593749992 resized=false",
	"16nm-2mm-y0.999-tight":                    "error: variation: no buffering candidate meets the yield target (budget of 48 candidates exhausted)",
	"16nm-2mm-y0.999-miss":                     "INV60x10 p=0.0007324218750000008 y=0.999267578125 se=0.0004227606905961269 n=4096 shifted=false mc vr=0.9997558593750013 resized=true",
	"16nm-2mm-y0.999-loose":                    "INV40x10 p=0.0004882812500000009 y=0.99951171875 se=0.00034522482328645197 n=4096 shifted=false mc vr=0.9997558593750019 resized=false",
	"16nm-2mm-y0.9999-tight":                   "error: variation: no buffering candidate meets the yield target (budget of 48 candidates exhausted)",
	"16nm-2mm-y0.9999-miss":                    "INV60x8 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=true",
	"16nm-2mm-y0.9999-loose":                   "INV40x10 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=false",
	"16nm-6mm-y0.99-tight":                     "error: variation: no buffering candidate meets the yield target (budget of 48 candidates exhausted)",
	"16nm-6mm-y0.99-miss":                      "INV60x26 p=0.008300781249999984 y=0.99169921875 se=0.001417824631736552 n=4096 shifted=false mc vr=0.9997558593749977 resized=true",
	"16nm-6mm-y0.99-loose":                     "INV40x28 p=0.004638671875000002 y=0.995361328125 se=0.001061842869919806 n=4096 shifted=false mc vr=0.999755859375002 resized=false",
	"16nm-6mm-y0.999-tight":                    "error: variation: no buffering candidate meets the yield target (budget of 48 candidates exhausted)",
	"16nm-6mm-y0.999-miss":                     "INV60x26 p=0.0004882812500000009 y=0.99951171875 se=0.00034522482328645197 n=4096 shifted=false mc vr=0.9997558593750019 resized=true",
	"16nm-6mm-y0.999-loose":                    "INV40x28 p=0.0004882812500000009 y=0.99951171875 se=0.00034522482328645197 n=4096 shifted=false mc vr=0.9997558593750019 resized=false",
	"16nm-6mm-y0.9999-tight":                   "error: variation: no buffering candidate meets the yield target (budget of 48 candidates exhausted)",
	"16nm-6mm-y0.9999-miss":                    "INV60x26 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=true",
	"16nm-6mm-y0.9999-loose":                   "INV40x28 p=0 y=1 se=0 n=4096 shifted=false mc vr=1 resized=false",
	"90nm-6mm-y0.999-mc-relerr0-tight":         "error: variation: no buffering candidate meets the yield target (none of 26 feasible candidates reaches yield 0.999)",
	"90nm-6mm-y0.999-mc-relerr0-miss":          "INV80x2 p=0.0004882812500000009 y=0.99951171875 se=0.00034522482328645197 n=4096 shifted=false mc vr=0.9997558593750019 resized=true",
	"90nm-6mm-y0.999-mc-relerr0-loose":         "INV60x2 p=0.0004882812500000009 y=0.99951171875 se=0.00034522482328645197 n=4096 shifted=false mc vr=0.9997558593750019 resized=false",
	"90nm-6mm-y0.999-isle-relerr0-tight":       "error: variation: no buffering candidate meets the yield target (none of 26 feasible candidates reaches yield 0.999)",
	"90nm-6mm-y0.999-isle-relerr0-miss":        "INV80x2 p=0.0005748668932395212 y=0.9994251331067605 se=1.842710585396796e-05 n=4096 shifted=true isle vr=413.088738614224 resized=true",
	"90nm-6mm-y0.999-isle-relerr0-loose":       "INV60x2 p=0.0005852629284589058 y=0.999414737071541 se=1.8585741186819974e-05 n=4096 shifted=true isle vr=413.4062583497529 resized=false",
	"90nm-6mm-y0.999-qmc-relerr0-tight":        "INV80x2 p=0.000732421875 y=0.999267578125 se=0.00035738528062080073 n=4096 shifted=false qmc vr=1.398974609375 resized=true",
	"90nm-6mm-y0.999-qmc-relerr0-miss":         "INV80x2 p=0.00048828125 y=0.99951171875 se=0.00031965511265037944 n=4096 shifted=false qmc vr=1.1660970052083335 resized=true",
	"90nm-6mm-y0.999-qmc-relerr0-loose":        "INV60x2 p=0.00048828125 y=0.99951171875 se=0.00031965511265037944 n=4096 shifted=false qmc vr=1.1660970052083335 resized=false",
	"90nm-6mm-y0.999-ais-relerr0-miss":         "INV80x2 p=0.0008618193775605864 y=0.9991381806224394 se=0.00019247832995287302 n=2048 shifted=true ais vr=15.111994638581752 resized=true",
	"90nm-6mm-y0.999-ais-relerr0-loose":        "INV60x2 p=0.0006333233504049118 y=0.9993666766495951 se=9.175091048744747e-05 n=2048 shifted=true ais vr=48.884734843181285 resized=false",
	"90nm-6mm-y0.999-sigma2.5-relerr0-tight":   "INV80x2 p=0.000732421875 y=0.999267578125 se=0.00035738528062080073 n=4096 shifted=false qmc vr=1.398974609375 resized=true",
	"90nm-6mm-y0.999-sigma2.5-relerr0-miss":    "INV80x2 p=0.00048828125 y=0.99951171875 se=0.00031965511265037944 n=4096 shifted=false qmc vr=1.1660970052083335 resized=true",
	"90nm-6mm-y0.999-sigma2.5-relerr0-loose":   "INV60x2 p=0.00048828125 y=0.99951171875 se=0.00031965511265037944 n=4096 shifted=false qmc vr=1.1660970052083335 resized=false",
	"90nm-6mm-y0.999-sigma3.5-relerr0-tight":   "error: variation: no buffering candidate meets the yield target (none of 26 feasible candidates reaches yield 0.999)",
	"90nm-6mm-y0.999-sigma3.5-relerr0-miss":    "INV80x2 p=0.0005748668932395212 y=0.9994251331067605 se=1.842710585396796e-05 n=4096 shifted=true isle vr=413.088738614224 resized=true",
	"90nm-6mm-y0.999-sigma3.5-relerr0-loose":   "INV60x2 p=0.0005852629284589058 y=0.999414737071541 se=1.8585741186819974e-05 n=4096 shifted=true isle vr=413.4062583497529 resized=false",
	"90nm-6mm-y0.999-mc-relerr0.2-tight":       "error: variation: no buffering candidate meets the yield target (none of 26 feasible candidates reaches yield 0.999)",
	"90nm-6mm-y0.999-mc-relerr0.2-miss":        "INV80x2 p=0.0004882812500000009 y=0.99951171875 se=0.00034522482328645197 n=4096 shifted=false mc vr=0.9997558593750019 resized=true",
	"90nm-6mm-y0.999-mc-relerr0.2-loose":       "INV60x2 p=0.0004882812500000009 y=0.99951171875 se=0.00034522482328645197 n=4096 shifted=false mc vr=0.9997558593750019 resized=false",
	"90nm-6mm-y0.999-isle-relerr0.2-tight":     "error: variation: no buffering candidate meets the yield target (none of 26 feasible candidates reaches yield 0.999)",
	"90nm-6mm-y0.999-isle-relerr0.2-miss":      "INV80x2 p=0.0005910516697640475 y=0.999408948330236 se=4.9960162090326685e-05 n=512 shifted=true isle vr=462.22245913934114 resized=true",
	"90nm-6mm-y0.999-isle-relerr0.2-loose":     "INV60x2 p=0.0005878286836641575 y=0.9994121713163359 se=5.123795523200457e-05 n=512 shifted=true isle vr=437.06081119580074 resized=false",
	"90nm-6mm-y0.999-qmc-relerr0.2-tight":      "INV80x2 p=0 y=1 se=0 n=512 shifted=false qmc vr=1 resized=true",
	"90nm-6mm-y0.999-qmc-relerr0.2-miss":       "INV80x2 p=0 y=1 se=0 n=512 shifted=false qmc vr=1 resized=true",
	"90nm-6mm-y0.999-qmc-relerr0.2-loose":      "INV60x2 p=0 y=1 se=0 n=512 shifted=false qmc vr=1 resized=false",
	"90nm-6mm-y0.999-ais-relerr0.2-miss":       "INV80x2 p=0.0008618193775605864 y=0.9991381806224394 se=0.00019247832995287302 n=2048 shifted=true ais vr=15.111994638581752 resized=true",
	"90nm-6mm-y0.999-ais-relerr0.2-loose":      "INV60x2 p=0.0006291085230968648 y=0.9993708914769032 se=0.00012128430593206303 n=1278 shifted=true ais vr=55.65213502659421 resized=false",
	"90nm-6mm-y0.999-sigma2.5-relerr0.2-tight": "INV80x2 p=0 y=1 se=0 n=512 shifted=false qmc vr=1 resized=true",
	"90nm-6mm-y0.999-sigma2.5-relerr0.2-miss":  "INV80x2 p=0 y=1 se=0 n=512 shifted=false qmc vr=1 resized=true",
	"90nm-6mm-y0.999-sigma2.5-relerr0.2-loose": "INV60x2 p=0 y=1 se=0 n=512 shifted=false qmc vr=1 resized=false",
	"90nm-6mm-y0.999-sigma3.5-relerr0.2-tight": "error: variation: no buffering candidate meets the yield target (none of 26 feasible candidates reaches yield 0.999)",
	"90nm-6mm-y0.999-sigma3.5-relerr0.2-miss":  "INV80x2 p=0.0005910516697640475 y=0.999408948330236 se=4.9960162090326685e-05 n=512 shifted=true isle vr=462.22245913934114 resized=true",
	"90nm-6mm-y0.999-sigma3.5-relerr0.2-loose": "INV60x2 p=0.0005878286836641575 y=0.9994121713163359 se=5.123795523200457e-05 n=512 shifted=true isle vr=437.06081119580074 resized=false",
	"90nm-6mm-y0.999-unaligned-miss":           "INV80x2 p=0 y=1 se=0 n=1000 shifted=false mc vr=1 resized=true",
	"90nm-6mm-y0.999-unaligned-tight":          "INV80x2 p=0.0010000000000000009 y=0.999 se=0.0010000000000000002 n=1000 shifted=false mc vr=0.9990000000000003 resized=true",
	"90nm-6mm-y0.999-exhausted":                "error: variation: no buffering candidate meets the yield target (budget of 6 candidates exhausted)",
	"90nm-6mm-y0.999-infeasible":               "error: buffering: no candidate design satisfies the constraint (searched 832 candidates)",
	"45nm-2mm-y0.99-mc-relerr0-tight":          "error: variation: no buffering candidate meets the yield target (none of 12 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-mc-relerr0-miss":           "INV120x1 p=0.007080078125000008 y=0.992919921875 se=0.0013102349628264832 n=4096 shifted=false mc vr=0.9997558593750018 resized=true",
	"45nm-2mm-y0.99-mc-relerr0-loose":          "INV80x1 p=0.003417968750000004 y=0.99658203125 se=0.0009120394352943947 n=4096 shifted=false mc vr=0.9997558593750008 resized=false",
	"45nm-2mm-y0.99-isle-relerr0-tight":        "error: variation: no buffering candidate meets the yield target (none of 12 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-isle-relerr0-miss":         "INV120x1 p=0.007120733200881369 y=0.9928792667991186 se=0.00023391671040129506 n=4096 shifted=true isle vr=31.545594202270596 resized=true",
	"45nm-2mm-y0.99-isle-relerr0-loose":        "INV80x1 p=0.0036100074456131906 y=0.9963899925543868 se=0.0001037395894132488 n=4096 shifted=true isle vr=81.59968026789348 resized=false",
	"45nm-2mm-y0.99-qmc-relerr0-tight":         "error: variation: no buffering candidate meets the yield target (none of 12 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-qmc-relerr0-miss":          "INV120x1 p=0.00732421875 y=0.99267578125 se=0.0006120929399687585 n=4096 shifted=false qmc vr=4.7377707741477275 resized=true",
	"45nm-2mm-y0.99-qmc-relerr0-loose":         "INV80x1 p=0.003173828125 y=0.996826171875 se=0.0008993998994299405 n=4096 shifted=false qmc vr=0.9548545435855262 resized=false",
	"45nm-2mm-y0.99-ais-relerr0-miss":          "error: variation: no buffering candidate meets the yield target (none of 13 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-ais-relerr0-loose":         "INV80x1 p=0.004486952879078358 y=0.9955130471209216 se=0.0005557111003522921 n=2048 shifted=true ais vr=9.404679190513411 resized=false",
	"45nm-2mm-y0.99-sigma2.5-relerr0-tight":    "error: variation: no buffering candidate meets the yield target (none of 12 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-sigma2.5-relerr0-miss":     "INV120x1 p=0.00732421875 y=0.99267578125 se=0.0006120929399687585 n=4096 shifted=false qmc vr=4.7377707741477275 resized=true",
	"45nm-2mm-y0.99-sigma2.5-relerr0-loose":    "INV80x1 p=0.003173828125 y=0.996826171875 se=0.0008993998994299405 n=4096 shifted=false qmc vr=0.9548545435855262 resized=false",
	"45nm-2mm-y0.99-sigma3.5-relerr0-tight":    "error: variation: no buffering candidate meets the yield target (none of 12 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-sigma3.5-relerr0-miss":     "INV120x1 p=0.005810086527808886 y=0.9941899134721911 se=0.008011263421564272 n=0 shifted=false wcd vr=1 resized=true",
	"45nm-2mm-y0.99-sigma3.5-relerr0-loose":    "INV80x1 p=0.0029534391809840884 y=0.9970465608190159 se=0.004683207548101001 n=0 shifted=false wcd vr=1 resized=false",
	"45nm-2mm-y0.99-mc-relerr0.2-tight":        "error: variation: no buffering candidate meets the yield target (none of 12 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-mc-relerr0.2-miss":         "INV120x1 p=0.006770833333333344 y=0.9932291666666666 se=0.0013235389846714691 n=3840 shifted=false mc vr=0.9997395833333343 resized=true",
	"45nm-2mm-y0.99-mc-relerr0.2-loose":        "INV80x1 p=0.003417968750000004 y=0.99658203125 se=0.0009120394352943947 n=4096 shifted=false mc vr=0.9997558593750008 resized=false",
	"45nm-2mm-y0.99-isle-relerr0.2-tight":      "error: variation: no buffering candidate meets the yield target (none of 12 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-isle-relerr0.2-miss":       "INV120x1 p=0.006811957457891423 y=0.9931880425421086 se=0.0005270477458606429 n=512 shifted=true isle vr=47.57004123079736 resized=true",
	"45nm-2mm-y0.99-isle-relerr0.2-loose":      "INV80x1 p=0.003942358795495981 y=0.996057641204504 se=0.0003038261820165074 n=512 shifted=true isle vr=83.08454870076349 resized=false",
	"45nm-2mm-y0.99-qmc-relerr0.2-tight":       "error: variation: no buffering candidate meets the yield target (none of 12 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-qmc-relerr0.2-miss":        "INV120x1 p=0.00732421875 y=0.99267578125 se=0.0011525328991251608 n=2048 shifted=false qmc vr=2.672588641826924 resized=true",
	"45nm-2mm-y0.99-qmc-relerr0.2-loose":       "INV80x1 p=0.003255208333333333 y=0.9967447916666666 se=0.0006510416666666666 n=3072 shifted=false qmc vr=2.4918619791666665 resized=false",
	"45nm-2mm-y0.99-ais-relerr0.2-miss":        "error: variation: no buffering candidate meets the yield target (none of 13 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-ais-relerr0.2-loose":       "INV80x1 p=0.004269689174221633 y=0.9957303108257783 se=0.0007107874740843701 n=1278 shifted=true ais vr=10.957140645224916 resized=false",
	"45nm-2mm-y0.99-sigma2.5-relerr0.2-tight":  "error: variation: no buffering candidate meets the yield target (none of 12 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-sigma2.5-relerr0.2-miss":   "INV120x1 p=0.00732421875 y=0.99267578125 se=0.0011525328991251608 n=2048 shifted=false qmc vr=2.672588641826924 resized=true",
	"45nm-2mm-y0.99-sigma2.5-relerr0.2-loose":  "INV80x1 p=0.003255208333333333 y=0.9967447916666666 se=0.0006510416666666666 n=3072 shifted=false qmc vr=2.4918619791666665 resized=false",
	"45nm-2mm-y0.99-sigma3.5-relerr0.2-tight":  "error: variation: no buffering candidate meets the yield target (none of 12 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-sigma3.5-relerr0.2-miss":   "INV120x1 p=0.005810086527808886 y=0.9941899134721911 se=0.008011263421564272 n=0 shifted=false wcd vr=1 resized=true",
	"45nm-2mm-y0.99-sigma3.5-relerr0.2-loose":  "INV80x1 p=0.0029534391809840884 y=0.9970465608190159 se=0.004683207548101001 n=0 shifted=false wcd vr=1 resized=false",
	"45nm-2mm-y0.99-unaligned-miss":            "INV120x1 p=0.009999999999999981 y=0.99 se=0.0031480009386767854 n=1000 shifted=false mc vr=0.998999999999997 resized=true",
	"45nm-2mm-y0.99-unaligned-tight":           "error: variation: no buffering candidate meets the yield target (none of 12 feasible candidates reaches yield 0.99)",
	"45nm-2mm-y0.99-exhausted":                 "error: variation: no buffering candidate meets the yield target (budget of 6 candidates exhausted)",
	"45nm-2mm-y0.99-infeasible":                "error: buffering: no candidate design satisfies the constraint (searched 832 candidates)",
	"error-target":                             "error: variation: non-positive delay target 0",
	"error-yield-target":                       "error: variation: yield target 1 outside (0,1)",
	"error-negative-batch":                     "error: variation: negative batch size -1",
	"error-estimator":                          "error: variation: unknown estimator \"bogus\"",
}
