// Package wiresize jointly optimizes wire geometry (width and spacing
// multiples of the layer minimums) and buffering for a global link.
// It extends the buffering optimizer with the degrees of freedom the
// paper's wire model was built to capture: widening a nanometer wire
// pays off twice (lower sheet resistance *and* weaker electron
// scattering, since the copper core grows relative to the mean free
// path), while extra spacing trades routing pitch for coupling
// capacitance — the Shi–Pan wire-sizing question evaluated with the
// paper's closed-form models instead of SPICE.
package wiresize

import (
	"context"
	"fmt"
	"math"

	"repro/internal/buffering"
	"repro/internal/pool"
	"repro/internal/tech"
	"repro/internal/wire"
)

// Design is one evaluated geometry + buffering solution.
type Design struct {
	// WidthMult and SpacingMult are the drawn width and spacing in
	// multiples of the layer minimums.
	WidthMult, SpacingMult float64
	// Buffer is the best buffering found for this geometry.
	Buffer buffering.Design
	// PitchMult is the resulting pitch relative to the minimum
	// pitch (the routing-resource cost).
	PitchMult float64
}

// Options configures the search.
type Options struct {
	// Buffering configures the inner repeater search (Coeffs
	// required).
	Buffering buffering.Options
	// MaxPitchMult bounds (width+spacing)/(minimum pitch); default 3.
	MaxPitchMult float64
	// Workers bounds the goroutines evaluating geometry candidates:
	// 0 uses every core, 1 runs serially. The selected design (and
	// any reported error) is identical either way.
	Workers int
}

// mults are the candidate width and spacing multiples of the layer
// minimums.
var mults = [...]float64{1, 1.5, 2, 3}

func (o Options) withDefaults() Options {
	if o.MaxPitchMult == 0 {
		o.MaxPitchMult = 3
	}
	return o
}

// OptimizeCtx searches geometry × buffering for the design minimizing
// the buffering objective (delay, or the weighted delay–power
// combination), subject to the pitch budget. The returned design's
// Buffer carries the model-predicted delay and power. Cancellation is
// checked at each geometry candidate's claim in the fan-out, so a
// deadline-bound caller gets ctx.Err() instead of waiting out the full
// sweep. A sweep that completes under a live context selects the
// identical design.
func OptimizeCtx(ctx context.Context, tc *tech.Technology, length float64, style wire.Style, opts Options) (Design, error) {
	o := opts.withDefaults()
	if o.Buffering.Coeffs == nil {
		return Design{}, fmt.Errorf("wiresize: missing model coefficients")
	}
	if length <= 0 {
		return Design{}, fmt.Errorf("wiresize: non-positive length %g", length)
	}

	layer := tc.Global
	minPitch := layer.Pitch()

	// Reference: minimum geometry, delay-optimal — used to normalize
	// the weighted objective consistently across geometries.
	refSeg := wire.NewSegment(tc, length, style)
	ref, err := buffering.DelayOptimal(refSeg, o.Buffering)
	if err != nil {
		return Design{}, err
	}
	w := o.Buffering.PowerWeight
	cost := func(d buffering.Design) float64 {
		if w == 0 {
			return d.Delay
		}
		return (1-w)*d.Delay/ref.Delay + w*d.Power.Total()/ref.Power.Total()
	}

	// Enumerate the admissible geometries first (cheap, serial), then
	// fan the expensive buffering searches out across the worker pool.
	// Each candidate is evaluated independently; reducing in
	// enumeration order with a strict comparison reproduces the serial
	// sweep's selection and first-error behavior exactly.
	type candidate struct {
		wm, sm, pitchMult float64
		seg               wire.Segment
	}
	var cands []candidate
	for _, wm := range mults {
		for _, sm := range mults {
			pitchMult := (wm*layer.Width + sm*layer.Spacing) / minPitch
			if pitchMult > o.MaxPitchMult+1e-12 {
				continue
			}
			seg := refSeg
			seg.Width = wm * layer.Width
			seg.Spacing = sm * layer.Spacing
			if err := seg.Validate(); err != nil {
				continue
			}
			cands = append(cands, candidate{wm: wm, sm: sm, pitchMult: pitchMult, seg: seg})
		}
	}
	designs := make([]buffering.Design, len(cands))
	err = pool.ForEachCtx(ctx, o.Workers, len(cands), func(i int) error {
		c := cands[i]
		var des buffering.Design
		var err error
		if w == 0 {
			des, err = buffering.DelayOptimal(c.seg, o.Buffering)
		} else {
			des, err = buffering.Optimize(c.seg, o.Buffering)
		}
		if err != nil {
			return fmt.Errorf("wiresize: w=%g s=%g: %w", c.wm, c.sm, err)
		}
		designs[i] = des
		return nil
	})
	if err != nil {
		return Design{}, err
	}
	best := Design{}
	bestCost := math.Inf(1)
	for i, c := range cands {
		if cc := cost(designs[i]); cc < bestCost {
			bestCost = cc
			best = Design{WidthMult: c.wm, SpacingMult: c.sm, Buffer: designs[i], PitchMult: c.pitchMult}
		}
	}
	if math.IsInf(bestCost, 1) {
		return Design{}, fmt.Errorf("wiresize: no geometry satisfies the pitch budget %.2f", o.MaxPitchMult)
	}
	return best, nil
}
