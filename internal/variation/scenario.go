package variation

import (
	"context"
	"fmt"
	"math"

	"repro/internal/estimator"
	"repro/internal/model"
	"repro/internal/tech"
	"repro/internal/wire"
)

// LinkScenario binds a designed buffered link to a variation space and
// a timing target, exposing the per-sample evaluation the estimators
// drive: perturb the technology, re-derive the model coefficients
// through the closed-form scaling path, evaluate the link delay, and
// compare against the target.
type LinkScenario struct {
	// Base is the nominal technology the link was designed in.
	Base *tech.Technology
	// Coeffs are the calibrated coefficients at Base.
	Coeffs *model.Coefficients
	// Space is the variation model.
	Space Space
	// Spec is the designed line (repeater kind/size/count, segment
	// geometry, input slew) whose yield is under estimation.
	Spec model.LineSpec
	// Target is the delay constraint in seconds: a sample fails when
	// its delay exceeds the target.
	Target float64
}

// Validate rejects an unevaluable scenario.
func (sc *LinkScenario) Validate() error {
	if sc.Base == nil || sc.Coeffs == nil {
		return fmt.Errorf("variation: scenario needs a technology and coefficients")
	}
	if sc.Target <= 0 {
		return fmt.Errorf("variation: non-positive delay target %g", sc.Target)
	}
	if err := sc.Space.Validate(); err != nil {
		return err
	}
	return sc.Spec.Validate()
}

// Scratch holds the per-sample working state of a scenario
// evaluation: the perturbed technology and the rescaled coefficient
// set. The zero value is ready to use. The sampling kernels keep one
// Scratch per worker so the steady path performs no heap allocation;
// one-shot callers can use Delay, which brings its own.
type Scratch struct {
	tech   tech.Technology
	coeffs model.Coefficients
}

// Delay evaluates the link delay (s) at one standardized draw z.
func (sc *LinkScenario) Delay(z []float64) (float64, error) {
	var s Scratch
	return sc.DelayScratch(&s, z)
}

// DelayScratch is Delay evaluating through caller-owned scratch state,
// bit-identical to Delay. z is only read.
func (sc *LinkScenario) DelayScratch(s *Scratch, z []float64) (float64, error) {
	f := sc.Space.ApplyInto(&s.tech, sc.Base, z)
	sc.Coeffs.ScaleInto(&s.coeffs, sc.Base, &s.tech)

	spec := sc.Spec
	perturbSegment(&spec.Segment, &s.tech, f)

	t, err := s.coeffs.LineDelay(spec)
	if err != nil {
		return 0, err
	}
	return t.Delay, nil
}

// perturbSegment applies one draw's wire factors to a designed
// segment, rebinding it to the perturbed technology. The arithmetic
// mirrors Space.ApplyInto's layer perturbation, applied to the
// segment's own (possibly non-minimum) geometry.
func perturbSegment(seg *wire.Segment, pert *tech.Technology, f Factors) {
	seg.Tech = pert
	dw := seg.Width * (f.WireWidth - 1)
	seg.Width += dw
	seg.Spacing = clampSpacing(seg.Spacing-dw, seg.Spacing)
	seg.Layer.Thickness *= f.WireThickness
	seg.Layer.ILD *= f.ILD
}

// zeroDraw is the shared all-zero standardized draw behind
// NominalDelay. It is read-only by contract: every consumer of a draw
// (Space.ApplyInto, the scenario evaluators) only reads z, and a test
// pins that NominalDelay never writes through it.
var zeroDraw [Dims]float64

// NominalDelay evaluates the scenario at the nominal point (all-zero
// draw).
func (sc *LinkScenario) NominalDelay() (float64, error) {
	return sc.Delay(zeroDraw[:])
}

// resolveKind maps the options' estimator hints to the concrete rung
// that will run: an explicit Estimator wins, then TargetSigma routing,
// then plain MC.
func (o YieldOptions) resolveKind() (estimator.Kind, error) {
	if o.TargetSigma < 0 || math.IsNaN(o.TargetSigma) || math.IsInf(o.TargetSigma, 0) {
		return estimator.Auto, fmt.Errorf("variation: invalid target sigma %g", o.TargetSigma)
	}
	if o.Estimator != estimator.Auto {
		if !estimator.Known(o.Estimator) {
			return estimator.Auto, fmt.Errorf("variation: unknown estimator %q", o.Estimator)
		}
		return o.Estimator, nil
	}
	if o.TargetSigma > 0 {
		if k := estimator.RouteSigma(o.TargetSigma); k != estimator.Auto {
			return k, nil
		}
	}
	return estimator.MC, nil
}

// EstimateLinkYieldCtx estimates the probability that the scenario's
// link meets its delay target under process variation. The estimate is
// bit-identical for every Workers value at a fixed seed. Cancellation
// is checked between sample batches (and between the deterministic
// delay evaluations that place the ISLE rung's shift), so an
// estimation legitimately stretching to millions of samples can be
// interrupted or deadline-bound; a run that completes under a live
// context is bit-identical to one under context.Background.
func EstimateLinkYieldCtx(ctx context.Context, sc *LinkScenario, o YieldOptions) (Estimate, error) {
	if err := sc.Validate(); err != nil {
		return Estimate{}, err
	}
	// Single-candidate view of the shared kernel: same draws, same
	// fold order, same stopping rule — bit-identical to the historical
	// per-sample implementation (the tests' oracle over sc.Delay), but
	// with the per-worker scratch keeping the steady path
	// allocation-free. The shared kernel owns estimator dispatch
	// (including the ISLE rung's shift, isleShift).
	ms := &MultiScenario{
		Base:   sc.Base,
		Coeffs: sc.Coeffs,
		Space:  sc.Space,
		Specs:  []model.LineSpec{sc.Spec},
		Target: sc.Target,
	}
	ests, err := EstimateYieldsSharedCtx(ctx, ms, o)
	if err != nil {
		return Estimate{}, err
	}
	return ests[0], nil
}
