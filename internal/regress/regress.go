// Package regress provides the least-squares fitting machinery used to
// calibrate the predictive interconnect models against golden
// (simulator-generated) data.
//
// The paper derives every model coefficient with one of three fits:
// simple linear regression (leakage vs width, area vs width), linear
// regression with zero intercept (drive resistance vs 1/size, input
// capacitance vs width), and quadratic regression (intrinsic delay vs
// input slew). Multiple linear regression covers the output-slew model,
// which is linear in several predictors at once. All of them reduce to
// solving the normal equations of an ordinary least-squares problem,
// which this package does with Gaussian elimination and partial
// pivoting — adequate for the small, well-conditioned systems that
// arise here (at most a handful of predictors).
package regress

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when the normal equations are singular or so
// ill-conditioned that no reliable solution exists (for example when
// all sample points share the same abscissa).
var ErrSingular = errors.New("regress: singular normal equations")

// ErrDimension is returned when the supplied data has inconsistent or
// insufficient dimensions for the requested fit.
var ErrDimension = errors.New("regress: dimension mismatch or too few samples")

// Fit is the outcome of a least-squares fit.
type Fit struct {
	// Coeff holds the fitted coefficients. Their meaning depends on
	// the fitting function that produced them; see each function's
	// documentation.
	Coeff []float64
	// R2 is the coefficient of determination of the fit in [–inf, 1];
	// 1 means the model explains the data exactly. It can be negative
	// for a zero-intercept fit that does worse than the mean.
	R2 float64
	// RMSE is the root-mean-square residual in the units of y.
	RMSE float64
	// MaxAbsResidual is the largest absolute residual.
	MaxAbsResidual float64
}

// solve solves the linear system a·x = b in place using Gaussian
// elimination with partial pivoting. a is row-major n×n.
func solve(a [][]float64, b []float64) ([]float64, error) {
	n := len(a)
	for i := range a {
		if len(a[i]) != n {
			return nil, ErrDimension
		}
	}
	if len(b) != n {
		return nil, ErrDimension
	}
	// Work on copies so callers keep their inputs.
	m := make([][]float64, n)
	for i := range m {
		m[i] = append([]float64(nil), a[i]...)
	}
	rhs := append([]float64(nil), b...)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(m[col][col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(m[r][col]); v > best {
				best, pivot = v, r
			}
		}
		if best == 0 || math.IsNaN(best) {
			return nil, ErrSingular
		}
		m[col], m[pivot] = m[pivot], m[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]

		inv := 1 / m[col][col]
		for r := col + 1; r < n; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				m[r][c] -= f * m[col][c]
			}
			rhs[r] -= f * rhs[col]
		}
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := rhs[i]
		for c := i + 1; c < n; c++ {
			s -= m[i][c] * x[c]
		}
		x[i] = s / m[i][i]
		if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
			return nil, ErrSingular
		}
	}
	return x, nil
}

// leastSquares fits y ≈ X·β for a row-major design matrix X (one row
// per sample) and returns β along with fit statistics.
func leastSquares(x [][]float64, y []float64) (Fit, error) {
	n := len(x)
	if n == 0 || n != len(y) {
		return Fit{}, ErrDimension
	}
	p := len(x[0])
	if p == 0 || n < p {
		return Fit{}, ErrDimension
	}
	// Normal equations: (XᵀX)·β = Xᵀy.
	xtx := make([][]float64, p)
	for i := range xtx {
		xtx[i] = make([]float64, p)
	}
	xty := make([]float64, p)
	for r, row := range x {
		if len(row) != p {
			return Fit{}, ErrDimension
		}
		for i := 0; i < p; i++ {
			xty[i] += row[i] * y[r]
			for j := i; j < p; j++ {
				xtx[i][j] += row[i] * row[j]
			}
		}
	}
	for i := 0; i < p; i++ {
		for j := 0; j < i; j++ {
			xtx[i][j] = xtx[j][i]
		}
	}
	beta, err := solve(xtx, xty)
	if err != nil {
		return Fit{}, err
	}
	return finishFit(x, y, beta), nil
}

// finishFit computes residual statistics for a solved fit.
func finishFit(x [][]float64, y, beta []float64) Fit {
	n := len(y)
	mean := 0.0
	for _, v := range y {
		mean += v
	}
	mean /= float64(n)

	var ssRes, ssTot, maxAbs float64
	for r, row := range x {
		pred := 0.0
		for i, b := range beta {
			pred += b * row[i]
		}
		res := y[r] - pred
		ssRes += res * res
		d := y[r] - mean
		ssTot += d * d
		if a := math.Abs(res); a > maxAbs {
			maxAbs = a
		}
	}
	r2 := 1.0
	if ssTot > 0 {
		r2 = 1 - ssRes/ssTot
	} else if ssRes > 0 {
		r2 = 0
	}
	return Fit{
		Coeff:          beta,
		R2:             r2,
		RMSE:           math.Sqrt(ssRes / float64(n)),
		MaxAbsResidual: maxAbs,
	}
}

// Linear fits y ≈ c0 + c1·x by ordinary least squares.
// Coeff[0] is the intercept c0 and Coeff[1] the slope c1.
func Linear(x, y []float64) (Fit, error) {
	if len(x) != len(y) || len(x) < 2 {
		return Fit{}, ErrDimension
	}
	rows := make([][]float64, len(x))
	for i, v := range x {
		rows[i] = []float64{1, v}
	}
	return leastSquares(rows, y)
}

// LinearZero fits y ≈ c·x with the intercept constrained to zero, as
// the paper does for drive resistance versus reciprocal repeater size
// and for input capacitance versus device width.
// Coeff[0] is the slope c.
func LinearZero(x, y []float64) (Fit, error) {
	if len(x) != len(y) || len(x) < 1 {
		return Fit{}, ErrDimension
	}
	var sxx, sxy float64
	for i, v := range x {
		sxx += v * v
		sxy += v * y[i]
	}
	if sxx == 0 {
		return Fit{}, ErrSingular
	}
	rows := make([][]float64, len(x))
	for i, v := range x {
		rows[i] = []float64{v}
	}
	return finishFit(rows, y, []float64{sxy / sxx}), nil
}

// Quadratic fits y ≈ c0 + c1·x + c2·x² by least squares, as the paper
// does for intrinsic delay versus input slew.
// Coeff is [c0, c1, c2].
func Quadratic(x, y []float64) (Fit, error) {
	if len(x) != len(y) || len(x) < 3 {
		return Fit{}, ErrDimension
	}
	rows := make([][]float64, len(x))
	for i, v := range x {
		rows[i] = []float64{1, v, v * v}
	}
	return leastSquares(rows, y)
}

// Multi fits y ≈ c0 + Σ ci·x_i over multiple predictors (one column
// per predictor, one row per sample). Coeff is [c0, c1, …, cp].
func Multi(predictors [][]float64, y []float64) (Fit, error) {
	if len(predictors) != len(y) || len(predictors) == 0 {
		return Fit{}, ErrDimension
	}
	p := len(predictors[0])
	rows := make([][]float64, len(predictors))
	for i, row := range predictors {
		if len(row) != p {
			return Fit{}, ErrDimension
		}
		rows[i] = append([]float64{1}, row...)
	}
	return leastSquares(rows, y)
}

// String summarizes a fit for diagnostics.
func (f Fit) String() string {
	return fmt.Sprintf("coeff=%v R²=%.5f rmse=%.3g max|res|=%.3g",
		f.Coeff, f.R2, f.RMSE, f.MaxAbsResidual)
}
