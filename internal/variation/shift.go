package variation

import "math"

// This file locates the importance-sampling mean shift. The ISLE-style
// estimator wants the sampling distribution centered on the most
// probable failure point: the point of the failure region closest to
// the origin in the standardized space. For the smooth, monotone
// closed-form delay models a first-order search is enough — take the
// gradient of the metric at the nominal point, walk along it until the
// metric crosses the failure threshold, and refine the crossing by
// bisection. All evaluations are deterministic, so two runs with the
// same scenario compute the same shift.

// Metric maps a standardized draw to the scalar the yield constraint
// thresholds (for link yield: the worst-edge delay in seconds).
// Failure means metric ≥ target.
type Metric func(z []float64) (float64, error)

// maxShiftNorm caps how far out the shift may sit. Beyond ~8σ the
// failure probability is below anything the estimators can resolve
// anyway, and the likelihood ratios grow numerically hostile.
const maxShiftNorm = 8.0

// FindShift computes a mean shift in the Dims-dimensional standardized
// space toward the failure region of the metric, returning nil (plain
// Monte Carlo) when shifting cannot help: the nominal point already
// fails, or the metric shows no gradient.
func FindShift(target float64, metric Metric) ([]float64, error) {
	z := make([]float64, Dims)
	m0, err := metric(z)
	if err != nil {
		return nil, err
	}
	if m0 >= target {
		// Failures are common at the nominal point; plain MC already
		// samples them efficiently.
		return nil, nil
	}

	// Central-difference gradient of the metric at the origin.
	const h = 0.5
	grad := make([]float64, Dims)
	var norm float64
	for d := 0; d < Dims; d++ {
		z[d] = h
		mp, err := metric(z)
		if err != nil {
			return nil, err
		}
		z[d] = -h
		mm, err := metric(z)
		if err != nil {
			return nil, err
		}
		z[d] = 0
		grad[d] = (mp - mm) / (2 * h)
		norm += grad[d] * grad[d]
	}
	norm = math.Sqrt(norm)
	if norm == 0 || math.IsNaN(norm) {
		return nil, nil
	}
	unit := grad
	for d := range unit {
		unit[d] /= norm
	}

	at := func(t float64) (float64, error) {
		for d := range z {
			z[d] = t * unit[d]
		}
		return metric(z)
	}

	// March outward until the metric crosses the target, then bisect
	// the bracketing interval down to a tight crossing estimate.
	lo, hi := 0.0, 0.0
	for t := 0.5; t <= maxShiftNorm; t += 0.5 {
		m, err := at(t)
		if err != nil {
			return nil, err
		}
		if m >= target {
			hi = t
			lo = t - 0.5
			break
		}
	}
	if hi == 0 {
		// No crossing within the cap: the failure region is
		// effectively unreachable. Shift to the cap anyway — the
		// estimator stays unbiased and will report ≈0 with finite
		// variance, where plain MC would see no failures at all.
		hi = maxShiftNorm
		lo = maxShiftNorm
	}
	for it := 0; it < 12 && hi-lo > 1e-3; it++ {
		mid := (lo + hi) / 2
		m, err := at(mid)
		if err != nil {
			return nil, err
		}
		if m >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	shift := make([]float64, Dims)
	for d := range shift {
		shift[d] = hi * unit[d]
	}
	return shift, nil
}
