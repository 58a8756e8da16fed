package buffering

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/liberty"
	"repro/internal/model"
	"repro/internal/tech"
	"repro/internal/wire"
)

// This file keeps the search as it was before one lazily filled grid
// per search served DelayOptimal, Optimize and Candidates: every probe
// re-extracts the wire and re-evaluates the model, Optimize and
// Candidates each run DelayOptimal afresh, and Candidates stable-sorts
// whole designs. The tests hold the production search to it.

// evaluate runs the model for one candidate.
func evaluate(seg wire.Segment, o Options, kind liberty.CellKind, size float64, n int) (Design, error) {
	spec := model.LineSpec{Kind: kind, Size: size, N: n, Segment: seg, InputSlew: o.InputSlew}
	timing, err := o.Coeffs.LineDelay(spec)
	if err != nil {
		return Design{}, err
	}
	d := Design{Kind: kind, Size: size, N: n, Delay: timing.Delay, OutputSlew: timing.OutputSlew}
	pp := o.Power
	if pp.Freq <= 0 {
		pp = model.PowerParams{Activity: 0.15, Freq: seg.Tech.Clock}
	}
	p, err := o.Coeffs.LinePower(spec, pp)
	if err != nil {
		return Design{}, err
	}
	d.Power = p
	return d, nil
}

func referenceSearchN(seg wire.Segment, o Options, kind liberty.CellKind, size float64,
	cost func(Design) float64) (Design, error) {

	lo, hi := 1, maxN
	eval := func(n int) (Design, float64, error) {
		d, err := evaluate(seg, o, kind, size, n)
		if err != nil {
			return Design{}, 0, err
		}
		return d, cost(d), nil
	}
	for hi-lo > 3 {
		m1 := lo + (hi-lo)/3
		m2 := hi - (hi-lo)/3
		_, c1, err := eval(m1)
		if err != nil {
			return Design{}, err
		}
		_, c2, err := eval(m2)
		if err != nil {
			return Design{}, err
		}
		if c1 <= c2 {
			hi = m2 - 1
		} else {
			lo = m1 + 1
		}
	}
	best := Design{}
	bestCost := math.Inf(1)
	for n := lo; n <= hi; n++ {
		d, c, err := eval(n)
		if err != nil {
			return Design{}, err
		}
		if c < bestCost {
			best, bestCost = d, c
		}
	}
	if math.IsInf(bestCost, 1) {
		return Design{}, fmt.Errorf("buffering: empty search range")
	}
	return best, nil
}

func referenceDelayOptimal(seg wire.Segment, opts Options) (Design, error) {
	o := opts.withDefaults()
	if err := o.validate(); err != nil {
		return Design{}, err
	}
	if err := seg.Validate(); err != nil {
		return Design{}, err
	}
	best := Design{}
	bestDelay := math.Inf(1)
	for _, kind := range o.Kinds {
		for _, size := range o.Sizes {
			d, err := referenceSearchN(seg, o, kind, size, func(d Design) float64 { return d.Delay })
			if err != nil {
				return Design{}, err
			}
			if d.Delay < bestDelay {
				best, bestDelay = d, d.Delay
			}
		}
	}
	return best, nil
}

func referenceOptimize(seg wire.Segment, opts Options) (Design, error) {
	o := opts.withDefaults()
	if err := o.validate(); err != nil {
		return Design{}, err
	}
	ref, err := referenceDelayOptimal(seg, o)
	if err != nil {
		return Design{}, err
	}
	if o.PowerWeight == 0 {
		return ref, nil
	}
	dRef, pRef := ref.Delay, ref.Power.Total()
	if dRef <= 0 || pRef <= 0 {
		return Design{}, fmt.Errorf("buffering: degenerate reference design")
	}
	cost := func(d Design) float64 {
		return (1-o.PowerWeight)*d.Delay/dRef + o.PowerWeight*d.Power.Total()/pRef
	}
	best := Design{}
	bestCost := math.Inf(1)
	for _, kind := range o.Kinds {
		for _, size := range o.Sizes {
			d, err := referenceSearchN(seg, o, kind, size, cost)
			if err != nil {
				return Design{}, err
			}
			if c := cost(d); c < bestCost {
				best, bestCost = d, c
			}
		}
	}
	return best, nil
}

func referenceCandidates(seg wire.Segment, opts Options) ([]Design, error) {
	o := opts.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	ref, err := referenceDelayOptimal(seg, o)
	if err != nil {
		return nil, err
	}
	dRef, pRef := ref.Delay, ref.Power.Total()
	if dRef <= 0 || pRef <= 0 {
		return nil, fmt.Errorf("buffering: degenerate reference design")
	}
	cost := func(d Design) float64 {
		return (1-o.PowerWeight)*d.Delay/dRef + o.PowerWeight*d.Power.Total()/pRef
	}

	type candidate struct {
		d Design
		c float64
	}
	cands := make([]candidate, 0, len(o.Kinds)*len(o.Sizes)*maxN)
	for _, kind := range o.Kinds {
		for _, size := range o.Sizes {
			for n := 1; n <= maxN; n++ {
				d, err := evaluate(seg, o, kind, size, n)
				if err != nil {
					return nil, err
				}
				cands = append(cands, candidate{d, cost(d)})
			}
		}
	}
	sort.SliceStable(cands, func(i, j int) bool {
		a, b := cands[i], cands[j]
		if a.c != b.c {
			return a.c < b.c
		}
		if a.d.Size != b.d.Size {
			return a.d.Size < b.d.Size
		}
		return a.d.N < b.d.N
	})
	out := make([]Design, len(cands))
	for i, cand := range cands {
		out[i] = cand.d
	}
	return out, nil
}

// searchCase is one input to the search equivalence test.
type searchCase struct {
	name string
	seg  wire.Segment
	o    Options
}

func searchCases() []searchCase {
	var cases []searchCase
	lengths := []float64{0.5e-3, 5e-3, 20e-3}
	weights := []float64{0, 0.3, 0.6}
	if testing.Short() {
		lengths, weights = []float64{5e-3}, []float64{0, 0.6}
	}
	for _, name := range model.DefaultTechs() {
		tc := tech.MustLookup(name)
		for _, L := range lengths {
			for _, style := range []wire.Style{wire.SWSS, wire.Shielded, wire.Staggered} {
				for li, layer := range []tech.WireLayer{tc.Global, tc.Intermediate} {
					for _, w := range weights {
						cases = append(cases, searchCase{
							name: fmt.Sprintf("%s/L%g/%v/layer%d/w%g", name, L, style, li, w),
							seg:  wire.NewSegmentOn(tc, layer, L, style),
							o: Options{
								Coeffs:      model.MustDefault(name),
								Power:       model.PowerParams{Activity: 0.15, Freq: tc.Clock},
								PowerWeight: w,
							},
						})
					}
				}
			}
		}
	}
	tc := tech.MustLookup("65nm")
	seg := wire.NewSegment(tc, 7e-3, wire.SWSS)
	base := Options{Coeffs: model.MustDefault("65nm"), Power: model.PowerParams{Activity: 0.15, Freq: tc.Clock}, PowerWeight: 0.4}
	custom := func(name string, edit func(*Options, *wire.Segment)) {
		o, s := base, seg
		edit(&o, &s)
		cases = append(cases, searchCase{name: name, seg: s, o: o})
	}
	custom("buffers", func(o *Options, _ *wire.Segment) { o.Kinds = []liberty.CellKind{liberty.Buffer} })
	custom("both-kinds", func(o *Options, _ *wire.Segment) {
		o.Kinds = []liberty.CellKind{liberty.Buffer, liberty.Inverter}
	})
	custom("sizes", func(o *Options, _ *wire.Segment) { o.Sizes = []float64{90, 3, 500, 3, 17} })
	custom("tied-kinds", func(o *Options, s *wire.Segment) {
		// Equal rise and fall models on equal pull-up and pull-down
		// widths make a buffer and an inverter of one size and count
		// cost the same, so only the stable sort's grid order ranks
		// them.
		flat := *s.Tech
		flat.PNRatio = 1
		s.Tech = &flat
		c := *o.Coeffs
		c.Inv.Rise = c.Inv.Fall
		c.Buf = c.Inv
		o.Coeffs = &c
		o.Kinds = []liberty.CellKind{liberty.Buffer, liberty.Inverter}
	})
	custom("slew", func(o *Options, _ *wire.Segment) { o.InputSlew = 40e-12 })
	custom("no-power-point", func(o *Options, _ *wire.Segment) { o.Power, o.PowerWeight = model.PowerParams{}, 0 })
	custom("no-kinds", func(o *Options, _ *wire.Segment) { o.Kinds = []liberty.CellKind{} })
	custom("no-sizes", func(o *Options, _ *wire.Segment) { o.Sizes = []float64{} })
	// Invalid inputs: each must fail with the reference's error.
	custom("nil-coeffs", func(o *Options, _ *wire.Segment) { o.Coeffs = nil })
	custom("weight-1", func(o *Options, _ *wire.Segment) { o.PowerWeight = 1 })
	custom("weight-no-power", func(o *Options, _ *wire.Segment) { o.Power = model.PowerParams{} })
	custom("bad-activity", func(o *Options, _ *wire.Segment) {
		o.Power.Activity, o.PowerWeight = -0.1, 0
	})
	custom("bad-size", func(o *Options, _ *wire.Segment) { o.Sizes = []float64{8, 0, 16} })
	custom("bad-slew", func(o *Options, _ *wire.Segment) { o.InputSlew = -1e-12 })
	custom("bad-length", func(_ *Options, s *wire.Segment) { s.Length = 0 })
	custom("bad-width", func(_ *Options, s *wire.Segment) { s.Width = s.Tech.Barrier })
	custom("no-tech", func(_ *Options, s *wire.Segment) { s.Tech = nil })
	return cases
}

// TestSearchMatchesReference holds the one-grid search to the reference
// over technologies, lengths, styles, layers and power weights (zero
// included), custom kinds and sizes, and invalid
// segments, sizes, slews and power parameters: the package functions
// and one Search answering Optimize then Candidates must return the
// reference's designs, in the same order, or its exact error.
func TestSearchMatchesReference(t *testing.T) {
	for _, tc := range searchCases() {
		wantD, wantDErr := referenceDelayOptimal(tc.seg, tc.o)
		wantO, wantOErr := referenceOptimize(tc.seg, tc.o)
		wantC, wantCErr := referenceCandidates(tc.seg, tc.o)
		check := func(what string, got, want any, err, wantErr error) {
			t.Helper()
			if fmt.Sprint(err) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: %s = %v (%v), reference %v (%v)", tc.name, what, got, err, want, wantErr)
			}
		}
		d, err := DelayOptimal(tc.seg, tc.o)
		check("DelayOptimal", d, wantD, err, wantDErr)
		d, err = Optimize(tc.seg, tc.o)
		check("Optimize", d, wantO, err, wantOErr)
		c, err := Candidates(tc.seg, tc.o)
		check("Candidates", c, wantC, err, wantCErr)

		// One search, the sizing loop's order: Optimize, then Candidates.
		s, err := NewSearch(tc.seg, tc.o)
		if err != nil {
			check("NewSearch", nil, nil, err, wantOErr)
			continue
		}
		d, err = s.Optimize()
		check("Search.Optimize", d, wantO, err, wantOErr)
		c, err = s.Candidates()
		check("Search.Candidates", c, wantC, err, wantCErr)
	}
}

// BenchmarkCandidates times the whole cost-ordered grid on the 90 nm
// global layer, 5 mm, at power weight 0.5.
func BenchmarkCandidates(b *testing.B) {
	tc := tech.MustLookup("90nm")
	seg := wire.NewSegment(tc, 5e-3, wire.SWSS)
	o := opts90()
	o.PowerWeight = 0.5
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Candidates(seg, o); err != nil {
			b.Fatal(err)
		}
	}
}
