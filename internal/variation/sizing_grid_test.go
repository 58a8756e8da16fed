package variation

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/buffering"
	"repro/internal/liberty"
	"repro/internal/model"
	"repro/internal/tech"
	"repro/internal/wire"
)

// walkPrefix is what the walk reads of a cost-ordered candidate list
// under delay target t: the first maxCandidates cells whose delay is not
// over t, and whether one more follows.
func walkPrefix(cells []buffering.Design, t float64) ([]buffering.Design, bool) {
	feasible := make([]buffering.Design, 0, maxCandidates)
	for _, d := range cells {
		if d.Delay > t {
			continue
		}
		if len(feasible) == maxCandidates {
			return feasible, true
		}
		feasible = append(feasible, d)
	}
	return feasible, false
}

// sameCells reports whether two design lists are equal bit for bit
// (NaN delays included).
func sameCells(a, b []buffering.Design) bool {
	return slices.EqualFunc(a, b, func(x, y buffering.Design) bool {
		bits := math.Float64bits
		return x.Kind == y.Kind && x.N == y.N && bits(x.Size) == bits(y.Size) && bits(x.Delay) == bits(y.Delay) &&
			bits(x.Power.Dynamic) == bits(y.Power.Dynamic) && bits(x.Power.Leakage) == bits(y.Power.Leakage) &&
			bits(x.OutputSlew) == bits(y.OutputSlew)
	})
}

// checkReachable holds the kept cells to the whole cost-ordered grid:
// under every distinct cell delay as the target, and the floats either
// side of it, the walk reads the same feasible candidates and the same
// over-budget verdict from both.
func checkReachable(t *testing.T, name string, cands, kept []buffering.Design) {
	t.Helper()
	delays := make([]float64, len(cands))
	for i, d := range cands {
		delays[i] = d.Delay
	}
	slices.Sort(delays)
	for _, delay := range slices.Compact(delays) {
		for _, target := range []float64{math.Nextafter(delay, math.Inf(-1)), delay, math.Nextafter(delay, math.Inf(1))} {
			want, wantOver := walkPrefix(cands, target)
			got, gotOver := walkPrefix(kept, target)
			if gotOver != wantOver || !sameCells(got, want) {
				t.Fatalf("%s, target %v: the kept cells give %d candidates (over budget %v), the whole grid %d (over budget %v)",
					name, target, len(got), gotOver, len(want), wantOver)
			}
		}
	}
}

// TestSizingGridReachableExact: the kept cells of every link class of
// bench's sizing mix (90, 65 and 45 nm, 2–9.5 mm), on every style and
// at power weights 0, 0.5 and 0.9, give the walk exactly what the whole
// grid gives it under every target, and the grid keeps the whole
// grid's size for the walk's error text.
func TestSizingGridReachableExact(t *testing.T) {
	step := 0.5
	if testing.Short() || raceEnabled {
		step = 2.5
	}
	kept, classes := 0, 0
	for _, name := range []string{"90nm", "65nm", "45nm"} {
		tc := tech.MustLookup(name)
		for _, style := range []wire.Style{wire.SWSS, wire.Shielded, wire.Staggered} {
			for _, weight := range []float64{0, 0.5, 0.9} {
				for mm := 2.0; mm < 10; mm += step {
					seg := wire.NewSegment(tc, mm*1e-3, style)
					o := buffering.Options{
						Coeffs:      model.MustDefault(name),
						InputSlew:   300e-12,
						Power:       model.PowerParams{Activity: 0.15, Freq: tc.Clock},
						PowerWeight: weight,
					}
					cands, err := buffering.Candidates(seg, o)
					if err != nil {
						t.Fatal(err)
					}
					g, err := NewSizingGrid(seg, o)
					if err != nil {
						t.Fatal(err)
					}
					class := fmt.Sprintf("%s %v %gmm weight %g", name, style, mm, weight)
					if g.size != len(cands) {
						t.Fatalf("%s: grid size %d, want %d", class, g.size, len(cands))
					}
					checkReachable(t, class, cands, g.cells)
					kept += len(g.cells)
					classes++
				}
			}
		}
	}
	t.Logf("%d classes keep %.1f of 832 cells on average", classes, float64(kept)/float64(classes))
}

// TestSizingGridReachableTiesAndNaN runs the kept-cell rule on random
// cost-ordered lists whose delays repeat and include NaN, which every
// target admits: the kept cells still give the walk what the whole
// list gives it.
func TestSizingGridReachableTiesAndNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for run := 0; run < 200; run++ {
		cands := make([]buffering.Design, 50+rng.Intn(300))
		levels := 1 + rng.Intn(80)
		for i := range cands {
			cands[i] = buffering.Design{Kind: liberty.Inverter, Size: float64(i), N: 1, Delay: float64(1 + rng.Intn(levels))}
			if rng.Intn(40) == 0 {
				cands[i].Delay = math.NaN()
			}
		}
		kept := reachableCells(cands)
		if len(kept) < min(len(cands), maxCandidates+1) {
			t.Fatalf("run %d: %d of %d cells kept", run, len(kept), len(cands))
		}
		checkReachable(t, fmt.Sprintf("run %d", run), cands, kept)
		// A NaN delay is admitted by every target, so NaN cells count
		// against the budget everywhere.
		want, wantOver := walkPrefix(cands, 0.5)
		got, gotOver := walkPrefix(kept, 0.5)
		if gotOver != wantOver || !sameCells(got, want) {
			t.Fatalf("run %d, below every delay: the kept cells give %d candidates, the whole list %d", run, len(got), len(want))
		}
	}
}
