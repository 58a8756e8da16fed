// Package buffering implements the paper's buffering-scheme
// optimization (Section III-D): choosing the repeater count and size
// for a buffered interconnect by exhaustively searching candidate
// repeaters and searching the repeater count for the best value of a
// weighted delay–power objective, all evaluated with the calibrated
// predictive models (no SPICE in the loop — the paper's stated
// advantage over prior approaches).
//
// Delay-optimal buffering produces the "extremely large repeaters
// having sizes that are never used in practice"; the weighted
// objective backs off size and count to save power at small delay
// cost. Staggered insertion is expressed through the wire design
// style (wire.Staggered), which zeroes the Miller factor in the delay
// model while keeping the coupling charge in the power model.
package buffering

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/liberty"
	"repro/internal/model"
	"repro/internal/wire"
)

// ExtendedSizes is the optimizer's default candidate set: the
// characterized library sizes plus the larger drive strengths a pure
// delay-optimal solution reaches for — the paper's "extremely large
// repeaters having sizes that are never used in practice". The
// closed-form models extrapolate in 1/w, so evaluating them is exactly
// what makes the search SPICE-free.
var ExtendedSizes = []float64{4, 6, 8, 12, 16, 20, 30, 40, 60, 80, 120, 160, 240}

// MaxN bounds the repeater count of every candidate design. It is the
// one repeater bound: the yield facade refuses an explicit candidate
// with more, since evaluating a line walks every stage.
const MaxN = 64

// Design is one evaluated buffering solution.
type Design struct {
	Kind liberty.CellKind
	Size float64
	N    int
	// Delay is the model-predicted worst-edge line delay (s).
	Delay float64
	// Power is the model-predicted per-bit total power (W).
	Power model.LinePower
	// OutputSlew is the predicted receiver slew (s).
	OutputSlew float64
}

// Options configures the search.
type Options struct {
	// Coeffs is the calibrated model used for every evaluation.
	Coeffs *model.Coefficients
	// Kinds lists candidate repeater kinds; default inverters only
	// (the paper's Table II uses INVD cells).
	Kinds []liberty.CellKind
	// Sizes lists candidate drive strengths; default ExtendedSizes.
	Sizes []float64
	// InputSlew is the line input slew; default 300 ps (the paper's
	// stimulus).
	InputSlew float64
	// Power supplies the dynamic-power operating point; required for
	// PowerWeight > 0.
	Power model.PowerParams
	// PowerWeight w ∈ [0,1): the objective is
	// (1−w)·delay/delay* + w·power/power*, normalized by the
	// delay-optimal design's metrics. Zero selects pure
	// delay-optimal buffering.
	PowerWeight float64
}

func (o Options) withDefaults() Options {
	if o.Kinds == nil {
		o.Kinds = []liberty.CellKind{liberty.Inverter}
	}
	if o.Sizes == nil {
		o.Sizes = ExtendedSizes
	}
	if o.InputSlew == 0 {
		o.InputSlew = 300e-12
	}
	return o
}

func (o Options) validate() error {
	if o.Coeffs == nil {
		return fmt.Errorf("buffering: nil coefficients")
	}
	if o.PowerWeight < 0 || o.PowerWeight >= 1 {
		return fmt.Errorf("buffering: power weight %g outside [0,1)", o.PowerWeight)
	}
	if o.PowerWeight > 0 && (o.Power.Freq <= 0 || o.Power.Activity <= 0) {
		return fmt.Errorf("buffering: power weight requires activity and frequency")
	}
	return nil
}

// Search is one buffering search over a segment: the (kind, size,
// count) grid of candidate designs, filled lazily. Each cell is
// evaluated at most once, so the delay-optimal pass, Optimize and
// Candidates on one Search share every evaluation they have in common,
// and the wire's per-meter parameters are extracted once for all of
// them. A Search keeps nothing beyond its own lifetime and is not safe
// for concurrent use.
type Search struct {
	seg wire.Segment
	o   Options
	rc  model.LineRC
	pp  model.PowerParams
	// at maps grid cell (k·len(Sizes) + size)·MaxN + n−1 to one plus
	// the cell's position in cells; zero means not yet evaluated.
	at    []int32
	cells []Design
	// ref is the delay-optimal design.
	ref Design
}

// NewSearch validates the options and the segment and runs the
// delay-optimal pass, whose design normalizes the weighted objective of
// Optimize and Candidates.
func NewSearch(seg wire.Segment, opts Options) (*Search, error) {
	o := opts.withDefaults()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if err := seg.Validate(); err != nil {
		return nil, err
	}
	pp := o.Power
	if pp.Freq <= 0 {
		// Delay-only searches still report power at a nominal
		// operating point for the caller's information.
		pp = model.PowerParams{Activity: 0.15, Freq: seg.Tech.Clock}
	}
	s := &Search{
		seg: seg, o: o, rc: model.SegmentRC(seg), pp: pp,
		at: make([]int32, len(o.Kinds)*len(o.Sizes)*MaxN),
	}
	// Room for a quarter of the grid: Optimize's two passes probe about
	// a fifth of it (160–177 of 832 cells on 90 nm links), so an
	// Optimize-only caller neither regrows the slice nor reserves the
	// whole grid.
	s.cells = make([]Design, 0, len(s.at)/4)
	ref, err := s.delayOptimal()
	if err != nil {
		return nil, err
	}
	s.ref = ref
	return s, nil
}

// cell returns the position in s.cells of the design with kind
// o.Kinds[k], size o.Sizes[si] and n repeaters, evaluating it on first
// use.
func (s *Search) cell(k, si, n int) (int, error) {
	idx := (k*len(s.o.Sizes)+si)*MaxN + n - 1
	if s.at[idx] != 0 {
		return int(s.at[idx]) - 1, nil
	}
	kind, size := s.o.Kinds[k], s.o.Sizes[si]
	spec := model.LineSpec{Kind: kind, Size: size, N: n, Segment: s.seg, InputSlew: s.o.InputSlew}
	timing, err := s.o.Coeffs.LineDelayRC(spec, s.rc)
	if err != nil {
		return 0, err
	}
	p, err := s.o.Coeffs.LinePowerRC(spec, s.rc, s.pp)
	if err != nil {
		return 0, err
	}
	s.cells = append(s.cells, Design{Kind: kind, Size: size, N: n, Delay: timing.Delay, Power: p, OutputSlew: timing.OutputSlew})
	s.at[idx] = int32(len(s.cells))
	return len(s.cells) - 1, nil
}

// searchN finds the repeater count in [1, MaxN] minimizing cost for
// the repeater (o.Kinds[k], o.Sizes[si]), using the binary
// (ternary-style) search the paper describes: the objective is
// unimodal in N for buffered lines — too few repeaters leave quadratic
// wire delay, too many pay gate delay and power. A final local sweep
// guards against plateau round-off.
func (s *Search) searchN(k, si int, cost func(Design) float64) (Design, error) {
	lo, hi := 1, MaxN
	eval := func(n int) (Design, float64, error) {
		j, err := s.cell(k, si, n)
		if err != nil {
			return Design{}, 0, err
		}
		return s.cells[j], cost(s.cells[j]), nil
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

// delayOptimal returns the pure delay-optimal design over the
// candidate repeaters.
func (s *Search) delayOptimal() (Design, error) {
	best := Design{}
	bestDelay := math.Inf(1)
	for k := range s.o.Kinds {
		for si := range s.o.Sizes {
			d, err := s.searchN(k, si, func(d Design) float64 { return d.Delay })
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

// weighted returns the objective (1−w)·delay/delay* + w·power/power*,
// normalized by the delay-optimal design.
func (s *Search) weighted() (func(Design) float64, error) {
	dRef, pRef := s.ref.Delay, s.ref.Power.Total()
	if dRef <= 0 || pRef <= 0 {
		return nil, fmt.Errorf("buffering: degenerate reference design")
	}
	w := s.o.PowerWeight
	return func(d Design) float64 {
		return (1-w)*d.Delay/dRef + w*d.Power.Total()/pRef
	}, nil
}

// Optimize returns the design minimizing the weighted objective
// (1−w)·delay/delay* + w·power/power*, where the starred quantities
// come from the delay-optimal design. With w = 0 it reduces to
// DelayOptimal.
func (s *Search) Optimize() (Design, error) {
	if s.o.PowerWeight == 0 {
		return s.ref, nil
	}
	cost, err := s.weighted()
	if err != nil {
		return Design{}, err
	}
	best := Design{}
	bestCost := math.Inf(1)
	for k := range s.o.Kinds {
		for si := range s.o.Sizes {
			d, err := s.searchN(k, si, cost)
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

// ErrNoFeasibleDesign reports that no candidate design satisfies a
// caller's constraint, such as a delay target no candidate of the
// grid meets.
var ErrNoFeasibleDesign = fmt.Errorf("buffering: no candidate design satisfies the constraint")

// Candidates returns the full (kind, size, count) candidate grid in
// ascending cost order under the same weighted delay–power objective
// Optimize minimizes; cost ties break toward smaller size, then fewer
// repeaters, then grid order. It evaluates only the cells the
// delay-optimal pass and earlier calls on s left untouched. Callers
// that put an expensive check behind each candidate (the sizing loop's
// Monte Carlo yield walk) consume it in order.
func (s *Search) Candidates() ([]Design, error) {
	cost, err := s.weighted()
	if err != nil {
		return nil, err
	}
	s.cells = slices.Grow(s.cells, len(s.at)-len(s.cells))
	rank := make([]ranked, 0, len(s.at))
	for k := range s.o.Kinds {
		for si := range s.o.Sizes {
			for n := 1; n <= MaxN; n++ {
				j, err := s.cell(k, si, n)
				if err != nil {
					return nil, err
				}
				rank = append(rank, ranked{cost(s.cells[j]), j})
			}
		}
	}
	// Cost, then size, then count, each compared with < alone, so a NaN
	// sorts neither before nor after anything. The stable sort moves
	// (cost, position) pairs instead of whole designs; it is the same
	// algorithm as sort.SliceStable and asks only whether cmp < 0, so
	// it makes the same moves and yields the same order.
	less := func(x, y ranked) bool {
		if x.c != y.c {
			return x.c < y.c
		}
		dx, dy := &s.cells[x.j], &s.cells[y.j]
		if dx.Size != dy.Size {
			return dx.Size < dy.Size
		}
		return dx.N < dy.N
	}
	slices.SortStableFunc(rank, func(x, y ranked) int {
		switch {
		case less(x, y):
			return -1
		case less(y, x):
			return 1
		}
		return 0
	})
	out := make([]Design, len(rank))
	for i, r := range rank {
		out[i] = s.cells[r.j]
	}
	return out, nil
}

// ranked is one grid cell in Candidates' sort: its cost and its
// position in the search's cells.
type ranked struct {
	c float64
	j int
}

// DelayOptimal returns the pure delay-optimal design over the
// candidate repeaters.
func DelayOptimal(seg wire.Segment, opts Options) (Design, error) {
	s, err := NewSearch(seg, opts)
	if err != nil {
		return Design{}, err
	}
	return s.ref, nil
}

// Optimize returns the design minimizing the weighted objective
// (1−w)·delay/delay* + w·power/power*; see Search.Optimize.
func Optimize(seg wire.Segment, opts Options) (Design, error) {
	s, err := NewSearch(seg, opts)
	if err != nil {
		return Design{}, err
	}
	return s.Optimize()
}

// Candidates returns the full candidate grid in ascending cost order;
// see Search.Candidates.
func Candidates(seg wire.Segment, opts Options) ([]Design, error) {
	s, err := NewSearch(seg, opts)
	if err != nil {
		return nil, err
	}
	return s.Candidates()
}
