package poly

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewTrimsTrailingZeros(t *testing.T) {
	p := New(1, 2, 0, 0)
	if p.Degree() != 1 {
		t.Fatalf("degree = %d, want 1", p.Degree())
	}
	if !New(0, 0).IsZero() {
		t.Fatal("all-zero coefficients should trim to the zero polynomial")
	}
}

func TestAtHorner(t *testing.T) {
	p := New(1, -2, 3) // 1 - 2x + 3x^2
	if got := p.At(2); got != 9 {
		t.Fatalf("p(2) = %g, want 9", got)
	}
	if got := p.At(0); got != 1 {
		t.Fatalf("p(0) = %g, want 1", got)
	}
	if (Poly{}).At(5) != 0 {
		t.Fatal("zero polynomial must evaluate to 0")
	}
}

func TestDeriv(t *testing.T) {
	p := New(5, 1, 2, 4) // 5 + x + 2x^2 + 4x^3
	d := p.Deriv()
	want := New(1, 4, 12)
	if len(d.Coef) != len(want.Coef) {
		t.Fatalf("deriv = %v", d.Coef)
	}
	for i := range want.Coef {
		if d.Coef[i] != want.Coef[i] {
			t.Fatalf("deriv = %v, want %v", d.Coef, want.Coef)
		}
	}
	if !New(7).Deriv().IsZero() {
		t.Fatal("derivative of a constant must be zero")
	}
}

func TestIntegInvertsDerivUpToConstant(t *testing.T) {
	p := New(3, -1, 0.5, 2)
	back := p.Deriv().Integ(p.Coef[0])
	for _, x := range []float64{-2, -0.5, 0, 1, 3.7} {
		if math.Abs(back.At(x)-p.At(x)) > 1e-12 {
			t.Fatalf("Integ(Deriv) differs at %g", x)
		}
	}
}

func TestMul(t *testing.T) {
	p := New(1, 1)  // 1+x
	q := New(-1, 1) // -1+x
	m := p.Mul(q)   // x^2-1
	if m.Degree() != 2 || m.Coef[0] != -1 || m.Coef[1] != 0 || m.Coef[2] != 1 {
		t.Fatalf("Mul = %v", m.Coef)
	}
}

func TestShiftMatchesDirectEvaluation(t *testing.T) {
	p := New(2, -1, 0.5, 3)
	for _, h := range []float64{-1.5, 0, 0.32, 2} {
		q := p.Shift(h)
		for _, x := range []float64{-2, -0.3, 0, 1, 4} {
			if math.Abs(q.At(x)-p.At(x+h)) > 1e-10*(1+math.Abs(p.At(x+h))) {
				t.Fatalf("Shift(%g): q(%g)=%g, p(%g)=%g", h, x, q.At(x), x+h, p.At(x+h))
			}
		}
	}
}

func TestStringForms(t *testing.T) {
	if s := (Poly{}).String(); s != "0" {
		t.Fatalf("zero renders as %q", s)
	}
	if s := New(1, -2, 3).String(); s != "1 - 2*x + 3*x^2" {
		t.Fatalf("render %q", s)
	}
}

// Property: Shift(h) then Shift(-h) returns to the start.
func TestShiftRoundTripProperty(t *testing.T) {
	f := func(c [4]float64, h float64) bool {
		if math.IsNaN(h) || math.Abs(h) > 1e3 {
			return true
		}
		for _, v := range c {
			if math.IsNaN(v) || math.Abs(v) > 1e6 {
				return true
			}
		}
		p := New(c[0], c[1], c[2], c[3])
		q := p.Shift(h).Shift(-h)
		for _, x := range []float64{-1, 0, 1} {
			scale := 1 + math.Abs(p.At(x)) + math.Abs(h*h*h)*1e3
			if math.Abs(q.At(x)-p.At(x)) > 1e-6*scale {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestDerivAtMatchesDeriv: DerivAt gives Deriv().At's bits on trimmed
// polynomials of every degree up to 4.
func TestDerivAtMatchesDeriv(t *testing.T) {
	for _, p := range []Poly{{}, New(2.5), New(-1, 3), New(0.3, -2, 7), New(1e-3, 4, -5e2, 3.3), New(1, 2, 3, 4, 5)} {
		for _, x := range []float64{-1.7, -0.28, 0, 0.12, 3} {
			if got, want := p.DerivAt(x), p.Deriv().At(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v at %g: DerivAt %g, Deriv().At %g", p, x, got, want)
			}
		}
	}
}
