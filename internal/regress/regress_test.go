package regress

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestLinearExact(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 3.5 - 2*v
	}
	fit, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Coeff[0], 3.5, 1e-12) || !almost(fit.Coeff[1], -2, 1e-12) {
		t.Fatalf("got %v", fit.Coeff)
	}
	if fit.R2 < 1-1e-12 {
		t.Fatalf("R² = %v, want 1", fit.R2)
	}
}

func TestLinearNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, 200)
	y := make([]float64, 200)
	for i := range x {
		x[i] = float64(i) / 10
		y[i] = 1.25 + 0.75*x[i] + 0.01*rng.NormFloat64()
	}
	fit, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Coeff[0], 1.25, 1e-2) || !almost(fit.Coeff[1], 0.75, 1e-2) {
		t.Fatalf("got %v", fit.Coeff)
	}
	if fit.R2 < 0.999 {
		t.Fatalf("R² = %v", fit.R2)
	}
}

func TestLinearZero(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	y := []float64{2, 4, 6, 8}
	fit, err := LinearZero(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(fit.Coeff[0], 2, 1e-12) {
		t.Fatalf("slope %v, want 2", fit.Coeff[0])
	}
}

func TestLinearZeroIgnoresIntercept(t *testing.T) {
	// Data with a true intercept: zero-intercept fit must still return
	// the least-squares slope Σxy/Σx², not the two-parameter slope.
	x := []float64{1, 2, 3}
	y := []float64{3, 5, 7} // y = 1 + 2x
	fit, err := LinearZero(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := (1*3.0 + 2*5 + 3*7) / (1 + 4 + 9)
	if !almost(fit.Coeff[0], want, 1e-12) {
		t.Fatalf("slope %v, want %v", fit.Coeff[0], want)
	}
}

func TestQuadraticExact(t *testing.T) {
	x := []float64{-2, -1, 0, 1, 2, 3}
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = 0.5 + 1.5*v - 0.25*v*v
	}
	fit, err := Quadratic(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0.5, 1.5, -0.25}
	for i, w := range want {
		if !almost(fit.Coeff[i], w, 1e-9) {
			t.Fatalf("coeff[%d] = %v, want %v (%v)", i, fit.Coeff[i], w, fit.Coeff)
		}
	}
}

func TestMultiExact(t *testing.T) {
	// y = 2 + 3·a − 4·b
	var rows [][]float64
	var y []float64
	for a := 0.0; a < 4; a++ {
		for b := 0.0; b < 4; b++ {
			rows = append(rows, []float64{a, b})
			y = append(y, 2+3*a-4*b)
		}
	}
	fit, err := Multi(rows, y)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -4}
	for i, w := range want {
		if !almost(fit.Coeff[i], w, 1e-9) {
			t.Fatalf("coeff = %v, want %v", fit.Coeff, want)
		}
	}
}

func TestSingularDetected(t *testing.T) {
	x := []float64{2, 2, 2}
	y := []float64{1, 2, 3}
	if _, err := Linear(x, y); err == nil {
		t.Fatal("expected error for constant abscissa")
	}
	if _, err := LinearZero([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Fatal("expected error for all-zero x")
	}
}

func TestDimensionErrors(t *testing.T) {
	if _, err := Linear([]float64{1}, []float64{1}); err == nil {
		t.Fatal("want error: too few samples")
	}
	if _, err := Linear([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("want error: length mismatch")
	}
	if _, err := Quadratic([]float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("want error: quadratic needs 3 points")
	}
	if _, err := Multi([][]float64{{1, 2}, {1}}, []float64{1, 2}); err == nil {
		t.Fatal("want error: ragged rows")
	}
	if _, err := Multi(nil, nil); err == nil {
		t.Fatal("want error: empty")
	}
}

func TestResidualStats(t *testing.T) {
	// y = x with one outlier of +1 at the end.
	x := []float64{0, 1, 2, 3}
	y := []float64{0, 1, 2, 4}
	fit, err := Linear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if fit.MaxAbsResidual <= 0 || fit.RMSE <= 0 {
		t.Fatalf("expected nonzero residuals: %v", fit)
	}
	if fit.R2 >= 1 || fit.R2 < 0.8 {
		t.Fatalf("R² = %v out of expected range", fit.R2)
	}
}

// Property: a linear fit recovers arbitrary (finite, reasonable)
// slope/intercept pairs exactly from noise-free data.
func TestQuickLinearRecovery(t *testing.T) {
	f := func(c0, c1 float64) bool {
		c0 = math.Mod(c0, 1e6)
		c1 = math.Mod(c1, 1e6)
		x := []float64{-1, 0, 1, 2, 5}
		y := make([]float64, len(x))
		for i, v := range x {
			y[i] = c0 + c1*v
		}
		fit, err := Linear(x, y)
		if err != nil {
			return false
		}
		return almost(fit.Coeff[0], c0, 1e-6) && almost(fit.Coeff[1], c1, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: R² of a least-squares fit with intercept is never above 1.
func TestQuickR2Bounded(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(40)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = r.Float64()*10 - 5
			y[i] = r.NormFloat64() * 3
		}
		fit, err := Linear(x, y)
		if err != nil {
			return true // singular draws are fine
		}
		return fit.R2 <= 1+1e-9
	}
	for i := 0; i < 100; i++ {
		if !f(rng.Int63()) {
			t.Fatal("R² exceeded 1")
		}
	}
}

// Property: quadratic fit residuals are orthogonal-ish — RMSE of an
// exact-degree fit of noise-free polynomial data is ~0.
func TestQuickQuadraticExact(t *testing.T) {
	f := func(a, b, c float64) bool {
		a = math.Mod(a, 100)
		b = math.Mod(b, 100)
		c = math.Mod(c, 100)
		x := []float64{-3, -1, 0, 0.5, 2, 4}
		y := make([]float64, len(x))
		for i, v := range x {
			y[i] = a + b*v + c*v*v
		}
		fit, err := Quadratic(x, y)
		if err != nil {
			return false
		}
		scale := math.Max(1, math.Abs(a)+math.Abs(b)+math.Abs(c))
		return fit.RMSE <= 1e-8*scale
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLinearFit(b *testing.B) {
	x := make([]float64, 100)
	y := make([]float64, 100)
	for i := range x {
		x[i] = float64(i)
		y[i] = 2 + 3*float64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Linear(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
