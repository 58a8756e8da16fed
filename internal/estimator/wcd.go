package estimator

import (
	"fmt"
	"math"
)

// Worst-case-distance (WCD) analysis: the minimum-norm point of the
// failure region {z : metric(z) ≥ target} in the standardized normal
// space, and the first-order (FORM) failure probability Φ(−β) at its
// distance β. For a linear failure boundary the number is exact; for
// the engine's smooth, mildly nonlinear delay models it is a tight
// first-order approximation — tight enough that, with a safety margin,
// it certifies "the yield target holds" or "the yield target is
// unreachable" without drawing a single sample. That is the pyopus
// WCD→MC cascade: a rare-event query first pays ~a hundred closed-form
// model evaluations (microseconds against the sampling path's
// milliseconds-to-never), and only inconclusive queries go on to the
// sampling estimator.
//
// The search is a projected line search: steepest-ascent direction at
// the origin, bracketing march + bisection for the crossing (the first
// stage, FirstCrossing, which is also the ISLE rung's mean shift), then
// a few HL–RF projection refinements (project the crossing point onto
// the local gradient, re-search the crossing along the projected
// direction, keep the shorter distance). Every evaluation is
// deterministic, so two runs on the same scenario produce the same
// bound.

// Metric maps a standardized draw to the scalar the constraint
// thresholds; failure means metric ≥ target.
type Metric func(z []float64) (float64, error)

// WCDMaxNorm caps the searched distance. Φ(−8) ≈ 6e-16 is beyond any
// probability the sampling estimators can resolve, so a region farther
// than 8σ is reported as unreachable-by-search rather than chased.
const WCDMaxNorm = 8.0

// DefaultWCDMargin is the certification safety margin in sigma: the
// first-order bound must clear the target sigma by this much before
// the pre-filter certifies either way. Half a sigma absorbs the
// curvature error of the FORM approximation on the engine's delay
// models (validated against Monte Carlo in the estimator tests).
const DefaultWCDMargin = 0.5

// Bound is the result of one worst-case-distance analysis.
type Bound struct {
	// Beta is the distance of the minimum-norm failure point (the
	// "worst-case distance"); 0 when the nominal point already fails.
	Beta float64
	// Direction is the unit vector from the origin to the minimum-norm
	// failure point; nil when the nominal point fails, the metric is
	// flat, or (FindWCD only) no crossing was found.
	Direction []float64
	// FailProb is the first-order failure probability Φ(−Beta).
	FailProb float64
	// Evals counts the metric evaluations the search spent.
	Evals int
	// Reached reports whether a crossing was actually located; false
	// means the failure region lies beyond WCDMaxNorm in every
	// searched direction (Beta is then WCDMaxNorm, a lower bound).
	Reached bool
}

// Verdict is the outcome of certifying a WCD bound against a target
// sigma level.
type Verdict int

const (
	// Inconclusive: the bound sits within the margin of the target;
	// the caller must sample.
	Inconclusive Verdict = iota
	// CertifiedYield: β clears the target sigma by the margin — the
	// failure probability is first-order certified below Φ(−target).
	CertifiedYield
	// CertifiedUnreachable: β falls short of the target sigma by the
	// margin — the yield target cannot be met by this design.
	CertifiedUnreachable
)

func (v Verdict) String() string {
	switch v {
	case CertifiedYield:
		return "certified-yield"
	case CertifiedUnreachable:
		return "certified-unreachable"
	default:
		return "inconclusive"
	}
}

// Certify compares the bound against a target sigma level with the
// given margin (0 selects DefaultWCDMargin). The decision is the
// sub-microsecond pre-filter of the WCD→sampling cascade: two
// comparisons and no model evaluations.
func (w Bound) Certify(sigma, margin float64) Verdict {
	if margin <= 0 {
		margin = DefaultWCDMargin
	}
	switch {
	case w.Beta >= sigma+margin:
		return CertifiedYield
	case w.Reached && w.Beta <= sigma-margin:
		return CertifiedUnreachable
	default:
		return Inconclusive
	}
}

// Band returns a conservative standard error for the analytic
// estimate: 1.96 of it reaches the first-order probability one margin
// closer to the origin, Φ(−(β−margin)) — the dominant side of the
// (asymmetric) uncertainty the margin was chosen to cover.
func (w Bound) Band(margin float64) float64 {
	if margin <= 0 {
		margin = DefaultWCDMargin
	}
	return (Phi(-(w.Beta - margin)) - Phi(-w.Beta)) / 1.96
}

// search is the state of one failure-point search: the metric and its
// target, a scratch draw and gradient, and the evaluations spent.
type search struct {
	target  float64
	metric  Metric
	evals   int
	z, grad []float64
}

func newSearch(dims int, target float64, metric Metric) (*search, error) {
	if dims <= 0 {
		return nil, fmt.Errorf("estimator: non-positive dimension %d", dims)
	}
	return &search{target: target, metric: metric, z: make([]float64, dims), grad: make([]float64, dims)}, nil
}

func (s *search) eval(z []float64) (float64, error) {
	s.evals++
	return s.metric(z)
}

// gradientAt computes the central-difference gradient at p into s.grad
// and returns its norm.
func (s *search) gradientAt(p []float64) (float64, error) {
	const h = 0.25
	var norm float64
	for d := range s.grad {
		copy(s.z, p)
		s.z[d] = p[d] + h
		mp, err := s.eval(s.z)
		if err != nil {
			return 0, err
		}
		s.z[d] = p[d] - h
		mm, err := s.eval(s.z)
		if err != nil {
			return 0, err
		}
		s.grad[d] = (mp - mm) / (2 * h)
		norm += s.grad[d] * s.grad[d]
	}
	return math.Sqrt(norm), nil
}

// crossing finds the metric's target crossing along direction u,
// bracketing around the hint distance and bisecting; ok=false when the
// region is beyond WCDMaxNorm along u.
func (s *search) crossing(u []float64, hint float64) (float64, bool, error) {
	at := func(t float64) (float64, error) {
		for d := range s.z {
			s.z[d] = t * u[d]
		}
		return s.eval(s.z)
	}
	lo, hi := 0.0, 0.0
	if hint > 0 && hint <= WCDMaxNorm {
		m, err := at(hint)
		if err != nil {
			return 0, false, err
		}
		if m >= s.target {
			// Hint fails: walk down for the passing bracket end.
			hi = hint
			for t := hint * 0.5; t > 1e-3; t *= 0.5 {
				m, err := at(t)
				if err != nil {
					return 0, false, err
				}
				if m < s.target {
					lo = t
					break
				}
				hi = t
			}
		} else {
			lo = hint
			for t := hint * 1.25; t <= WCDMaxNorm; t *= 1.25 {
				m, err := at(t)
				if err != nil {
					return 0, false, err
				}
				if m >= s.target {
					hi = t
					break
				}
				lo = t
			}
		}
	}
	if hi == 0 {
		// No bracket yet: march out from the origin.
		for t := 0.5; t <= WCDMaxNorm; t += 0.5 {
			m, err := at(t)
			if err != nil {
				return 0, false, err
			}
			if m >= s.target {
				hi, lo = t, t-0.5
				break
			}
			lo = t
		}
	}
	if hi == 0 {
		return 0, false, nil
	}
	for it := 0; it < 20 && hi-lo > 1e-4; it++ {
		mid := (lo + hi) / 2
		m, err := at(mid)
		if err != nil {
			return 0, false, err
		}
		if m >= s.target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, true, nil
}

// first is the search's first stage: the steepest-ascent direction at
// the origin, and the crossing along it.
func (s *search) first() (Bound, error) {
	m0, err := s.eval(s.z)
	if err != nil {
		return Bound{}, err
	}
	if m0 >= s.target {
		return Bound{Beta: 0, FailProb: 0.5, Evals: s.evals, Reached: true}, nil
	}
	norm, err := s.gradientAt(make([]float64, len(s.z)))
	if err != nil {
		return Bound{}, err
	}
	if norm == 0 || math.IsNaN(norm) {
		// Flat metric (e.g. a zero-sigma space): no failure direction.
		return Bound{Beta: WCDMaxNorm, FailProb: Phi(-WCDMaxNorm), Evals: s.evals}, nil
	}
	unit := make([]float64, len(s.z))
	for d := range unit {
		unit[d] = s.grad[d] / norm
	}
	beta, ok, err := s.crossing(unit, 0)
	if err != nil {
		return Bound{}, err
	}
	if !ok {
		return Bound{Beta: WCDMaxNorm, Direction: unit, FailProb: Phi(-WCDMaxNorm), Evals: s.evals}, nil
	}
	return Bound{Beta: beta, Direction: unit, FailProb: Phi(-beta), Evals: s.evals, Reached: true}, nil
}

// FirstCrossing is the first stage of FindWCD: the steepest-ascent
// direction of the metric at the origin, marched out in 0.5σ steps to
// the first target crossing, which bisection then pins to 1e-4. Its
// Direction is that unit gradient whenever one exists, so when no
// crossing lies within WCDMaxNorm (Reached false) the bound still
// points along it, at Beta = WCDMaxNorm. Direction is nil when the
// nominal point fails (Beta 0) or the metric is flat. Beta·Direction
// is the mean shift of the ISLE rung: a first-order estimate of the
// most probable failure point, which FindWCD goes on to refine.
func FirstCrossing(dims int, target float64, metric Metric) (Bound, error) {
	s, err := newSearch(dims, target, metric)
	if err != nil {
		return Bound{}, err
	}
	return s.first()
}

// FindWCD locates the minimum-norm failure point of the metric.
func FindWCD(dims int, target float64, metric Metric) (Bound, error) {
	s, err := newSearch(dims, target, metric)
	if err != nil {
		return Bound{}, err
	}
	b, err := s.first()
	if err != nil || !b.Reached || b.Direction == nil {
		// A failing nominal point, a flat metric or no crossing within
		// the cap: nothing to refine, and no direction to report.
		b.Direction = nil
		return b, err
	}
	best, bestDir := b.Beta, b.Direction
	unit := make([]float64, dims)
	point := make([]float64, dims)

	// HL–RF refinement: project the crossing point onto the local
	// gradient and re-search along the projected direction. Each round
	// can only shorten the distance (the shorter candidate is kept),
	// so the loop converges monotonically; three rounds suffice for
	// the engine's mildly curved delay surfaces.
	for it := 0; it < 3; it++ {
		for d := range point {
			point[d] = best * bestDir[d]
		}
		norm, err := s.gradientAt(point)
		if err != nil {
			return Bound{}, err
		}
		if norm == 0 || math.IsNaN(norm) {
			break
		}
		// z' = ⟨∇g, z⟩ ∇g / |∇g|² — the projection of the current
		// crossing onto the gradient line (HL–RF with g(z*) = 0).
		var dot float64
		for d := range point {
			dot += s.grad[d] * point[d]
		}
		if dot <= 0 {
			break // gradient points back toward the origin: give up
		}
		var sq float64
		for d := range unit {
			unit[d] = s.grad[d] * dot / (norm * norm)
			sq += unit[d] * unit[d]
		}
		projNorm := math.Sqrt(sq)
		if projNorm == 0 {
			break
		}
		for d := range unit {
			unit[d] /= projNorm
		}
		b, ok, err := s.crossing(unit, projNorm)
		if err != nil {
			return Bound{}, err
		}
		if !ok || b >= best-1e-4 {
			break
		}
		best = b
		copy(bestDir, unit)
	}

	return Bound{
		Beta:      best,
		Direction: bestDir,
		FailProb:  Phi(-best),
		Evals:     s.evals,
		Reached:   true,
	}, nil
}
