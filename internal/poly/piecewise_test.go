package poly

import (
	"math"
	"math/rand"
	"testing"
)

// model1Like builds a piecewise function shaped like the paper's
// Model 1: linear / quadratic / zero with C1 joins at -0.08 and +0.08.
func model1Like(t *testing.T) Piecewise {
	t.Helper()
	// Quadratic q(x) = k*(x-b)^2 on [a,b] with q(b)=q'(b)=0 matches the
	// zero piece with C1; linear piece is its tangent at a.
	a, b, k := -0.08, 0.08, 2.0
	quad := New(k*b*b, -2*k*b, k)
	slope := quad.Deriv().At(a)
	lin := New(quad.At(a)-slope*a, slope)
	pw, err := NewPiecewise([]float64{a, b}, []Poly{lin, quad, {}})
	if err != nil {
		t.Fatal(err)
	}
	return pw
}

func TestNewPiecewiseValidation(t *testing.T) {
	if _, err := NewPiecewise([]float64{0}, []Poly{New(1)}); err == nil {
		t.Fatal("piece/break count mismatch should fail")
	}
	if _, err := NewPiecewise([]float64{1, 1}, []Poly{{}, {}, {}}); err == nil {
		t.Fatal("non-increasing breaks should fail")
	}
	if _, err := NewPiecewise([]float64{2, 1}, []Poly{{}, {}, {}}); err == nil {
		t.Fatal("decreasing breaks should fail")
	}
}

func TestPieceIndexConvention(t *testing.T) {
	pw := model1Like(t)
	cases := []struct {
		x    float64
		want int
	}{
		{-1, 0}, {-0.08, 0}, {-0.079, 1}, {0.08, 1}, {0.081, 2}, {5, 2},
	}
	for _, c := range cases {
		if got := pw.PieceIndex(c.x); got != c.want {
			t.Errorf("PieceIndex(%g) = %d, want %d", c.x, got, c.want)
		}
	}
}

func TestPiecewiseC1Continuity(t *testing.T) {
	pw := model1Like(t)
	c0, c1 := pw.ContinuityError()
	if c0 > 1e-12 || c1 > 1e-12 {
		t.Fatalf("continuity errors c0=%g c1=%g", c0, c1)
	}
}

func TestPiecewiseAtAgreesWithPieces(t *testing.T) {
	pw := model1Like(t)
	if v := pw.At(1); v != 0 {
		t.Fatalf("zero region gives %g", v)
	}
	if v := pw.At(0); math.Abs(v-pw.Pieces[1].At(0)) > 1e-15 {
		t.Fatalf("quadratic region mismatch: %g", v)
	}
	if v := pw.At(-0.5); math.Abs(v-pw.Pieces[0].At(-0.5)) > 1e-15 {
		t.Fatalf("linear region mismatch: %g", v)
	}
}

func TestPiecewiseDeriv(t *testing.T) {
	pw := model1Like(t)
	d := pw.Deriv()
	if got := d.At(-0.5); math.Abs(got-pw.Pieces[0].Coef[1]) > 1e-15 {
		t.Fatalf("derivative of linear region = %g", got)
	}
	if d.At(1) != 0 {
		t.Fatal("derivative of zero region must be 0")
	}
}

func TestPiecewiseShift(t *testing.T) {
	pw := model1Like(t)
	h := 0.32
	sh := pw.Shift(h)
	for _, x := range []float64{-1, -0.4, -0.1, 0, 0.05, 0.3} {
		if math.Abs(sh.At(x)-pw.At(x+h)) > 1e-12 {
			t.Fatalf("Shift mismatch at %g: %g vs %g", x, sh.At(x), pw.At(x+h))
		}
	}
	// Breaks moved by -h.
	if math.Abs(sh.Breaks[0]-(pw.Breaks[0]-h)) > 1e-15 {
		t.Fatalf("break not shifted: %g", sh.Breaks[0])
	}
}

func TestPiecewiseMaxDegree(t *testing.T) {
	pw := model1Like(t)
	if pw.MaxDegree() != 2 {
		t.Fatalf("MaxDegree = %d", pw.MaxDegree())
	}
}

func TestFitExactPolynomial(t *testing.T) {
	// Fitting samples of an exact cubic recovers it.
	truth := New(0.3, -1.2, 0.5, 2)
	xs := make([]float64, 30)
	ys := make([]float64, 30)
	for i := range xs {
		xs[i] = -1 + 2*float64(i)/29
		ys[i] = truth.At(xs[i])
	}
	pw, err := FitPiecewiseWeighted(nil, []PieceSpec{{Degree: 3}}, xs, ys, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := pw.Pieces[0]
	for i := range truth.Coef {
		if math.Abs(p.Coef[i]-truth.Coef[i]) > 1e-10 {
			t.Fatalf("coef %d: %g vs %g", i, p.Coef[i], truth.Coef[i])
		}
	}
}

func TestFitErrors(t *testing.T) {
	if _, err := FitPiecewiseWeighted(nil, []PieceSpec{{Degree: 1}}, []float64{1, 2}, []float64{1}, nil, nil); err == nil {
		t.Fatal("length mismatch should fail")
	}
	if _, err := FitPiecewiseWeighted(nil, []PieceSpec{{Degree: 5}}, []float64{1, 2}, []float64{1, 2}, nil, nil); err == nil {
		t.Fatal("underdetermined should fail")
	}
}

func TestFitPiecewiseRecoversC1Model(t *testing.T) {
	// Sample the exact Model-1-like function and refit with the same
	// structure; the constrained fit must reproduce it and stay C1.
	truth := model1Like(t)
	var xs, ys []float64
	for x := -0.6; x <= 0.4; x += 0.004 {
		xs = append(xs, x)
		ys = append(ys, truth.At(x))
	}
	zero := Poly{}
	fit, err := FitPiecewiseWeighted(truth.Breaks,
		[]PieceSpec{{Degree: 1}, {Degree: 2}, {Fixed: &zero}},
		xs, ys, nil, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := fit.ContinuityError()
	if c0 > 1e-9 || c1 > 1e-9 {
		t.Fatalf("fit not C1: %g %g", c0, c1)
	}
	for _, x := range []float64{-0.5, -0.2, -0.05, 0, 0.05, 0.2} {
		if math.Abs(fit.At(x)-truth.At(x)) > 1e-8 {
			t.Fatalf("fit differs at %g: %g vs %g", x, fit.At(x), truth.At(x))
		}
	}
}

func TestFitPiecewiseNoisyStaysC1(t *testing.T) {
	truth := model1Like(t)
	rng := rand.New(rand.NewSource(9))
	var xs, ys []float64
	for x := -0.6; x <= 0.4; x += 0.002 {
		xs = append(xs, x)
		ys = append(ys, truth.At(x)+1e-4*rng.NormFloat64())
	}
	zero := Poly{}
	fit, err := FitPiecewiseWeighted(truth.Breaks,
		[]PieceSpec{{Degree: 1}, {Degree: 2}, {Fixed: &zero}},
		xs, ys, nil, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := fit.ContinuityError()
	if c0 > 1e-8 || c1 > 1e-8 {
		t.Fatalf("noisy fit lost C1: %g %g", c0, c1)
	}
	// Fit quality should beat the noise floor comfortably.
	if r := RMS(fit.At, xs, ys); r > 5e-4 {
		t.Fatalf("rms = %g", r)
	}
}

func TestFitPiecewiseValidation(t *testing.T) {
	zero := Poly{}
	if _, err := FitPiecewiseWeighted([]float64{0}, []PieceSpec{{Degree: 1}}, nil, nil, nil, []int{1}); err == nil {
		t.Fatal("spec/break mismatch should fail")
	}
	if _, err := FitPiecewiseWeighted([]float64{1, 0}, []PieceSpec{{Degree: 1}, {Degree: 1}, {Fixed: &zero}}, nil, nil, nil, []int{1, 1}); err == nil {
		t.Fatal("unsorted breaks should fail")
	}
	if _, err := FitPiecewiseWeighted([]float64{0}, []PieceSpec{{Degree: 3}, {Fixed: &zero}},
		[]float64{-1, -2}, []float64{1, 2}, nil, []int{1}); err == nil {
		t.Fatal("too few samples should fail")
	}
}

func TestFitPiecewiseAllFixed(t *testing.T) {
	one := New(1)
	zero := Poly{}
	// Incompatible fixed pieces must be rejected when continuity is on.
	if _, err := FitPiecewiseWeighted([]float64{0}, []PieceSpec{{Fixed: &one}, {Fixed: &zero}}, nil, nil, nil, []int{0}); err == nil {
		t.Fatal("discontinuous fixed pieces should fail")
	}
	// Compatible fixed pieces pass through.
	pw, err := FitPiecewiseWeighted([]float64{0}, []PieceSpec{{Fixed: &zero}, {Fixed: &zero}}, nil, nil, nil, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if pw.At(3) != 0 {
		t.Fatal("assembled fixed piecewise wrong")
	}
}

func TestRMSHelper(t *testing.T) {
	f := func(x float64) float64 { return x }
	if RMS(f, nil, nil) != 0 {
		t.Fatal("empty RMS should be 0")
	}
	got := RMS(f, []float64{0, 1}, []float64{1, 1})
	if math.Abs(got-math.Sqrt(0.5)) > 1e-15 {
		t.Fatalf("RMS = %g", got)
	}
}
