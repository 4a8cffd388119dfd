// Package poly implements the polynomial machinery behind the paper's
// piecewise non-linear charge approximation: dense polynomials with
// Horner evaluation, calculus and Taylor shifts, piecewise polynomials
// over breakpoint grids, and (constrained) least-squares fitting. The
// closed-form root of each degree-≤3 region, which makes the
// self-consistent voltage equation solvable without Newton–Raphson,
// lives with the solve in internal/core.
package poly

import (
	"fmt"
	"strings"
)

// Poly is a dense polynomial; Coef[i] multiplies x^i. The zero value is
// the zero polynomial.
type Poly struct {
	Coef []float64
}

// New returns a polynomial with the given coefficients, constant term
// first. Trailing zero coefficients are trimmed.
func New(coef ...float64) Poly {
	p := Poly{Coef: append([]float64(nil), coef...)}
	p.trim()
	return p
}

func (p *Poly) trim() {
	n := len(p.Coef)
	for n > 0 && p.Coef[n-1] == 0 { //lint:allow floatcmp trims exactly-zero leading coefficients
		n--
	}
	p.Coef = p.Coef[:n]
}

// Degree returns the polynomial degree; the zero polynomial reports -1.
func (p Poly) Degree() int { return len(p.Coef) - 1 }

// IsZero reports whether p is identically zero.
func (p Poly) IsZero() bool { return len(p.Coef) == 0 }

// At evaluates p at x with Horner's scheme.
func (p Poly) At(x float64) float64 {
	s := 0.0
	for i := len(p.Coef) - 1; i >= 0; i-- {
		s = s*x + p.Coef[i]
	}
	return s
}

// Deriv returns the derivative polynomial.
func (p Poly) Deriv() Poly {
	if len(p.Coef) <= 1 {
		return Poly{}
	}
	d := make([]float64, len(p.Coef)-1)
	for i := 1; i < len(p.Coef); i++ {
		d[i-1] = float64(i) * p.Coef[i]
	}
	q := Poly{Coef: d}
	q.trim()
	return q
}

// DerivAt evaluates the derivative p′ at x with Horner's scheme, the
// value p.Deriv().At(x) has for a p with no trailing zero coefficient,
// without building the derivative.
func (p Poly) DerivAt(x float64) float64 {
	s := 0.0
	for i := len(p.Coef) - 1; i >= 1; i-- {
		s = s*x + float64(i)*p.Coef[i]
	}
	return s
}

// Integ returns the antiderivative with integration constant c.
func (p Poly) Integ(c float64) Poly {
	out := make([]float64, len(p.Coef)+1)
	out[0] = c
	for i, a := range p.Coef {
		out[i+1] = a / float64(i+1)
	}
	q := Poly{Coef: out}
	q.trim()
	return q
}

// Mul returns the product p*q.
func (p Poly) Mul(q Poly) Poly {
	if p.IsZero() || q.IsZero() {
		return Poly{}
	}
	out := make([]float64, len(p.Coef)+len(q.Coef)-1)
	for i, a := range p.Coef {
		if a == 0 { //lint:allow floatcmp exact zeros contribute nothing to the product
			continue
		}
		for j, b := range q.Coef {
			out[i+j] += a * b
		}
	}
	r := Poly{Coef: out}
	r.trim()
	return r
}

// Shift returns the polynomial q(x) = p(x + h), p re-expanded so that
// evaluating q at x gives p at x+h. Used to move charge fits between the
// normalised variable u = VSC - EF/q and the raw VSC axis.
func (p Poly) Shift(h float64) Poly {
	q := Poly{Coef: append([]float64(nil), p.Coef...)}
	ShiftCoef(q.Coef, h)
	q.trim()
	return q
}

// ShiftCoef is Shift in place: it rewrites the coefficients c of p(x),
// constant term first, into those of p(x + h), by repeated Horner
// accumulation (a Taylor shift). Trailing zeros stay as they are.
func ShiftCoef(c []float64, h float64) {
	n := len(c)
	for j := 0; j < n-1; j++ {
		for i := n - 2; i >= j; i-- {
			c[i] += h * c[i+1]
		}
	}
}

// String renders the polynomial in conventional ascending-power form.
func (p Poly) String() string {
	if p.IsZero() {
		return "0"
	}
	var b strings.Builder
	first := true
	for i, a := range p.Coef {
		if a == 0 { //lint:allow floatcmp exact zeros are not printed
			continue
		}
		if !first {
			if a >= 0 {
				b.WriteString(" + ")
			} else {
				b.WriteString(" - ")
				a = -a
			}
		}
		switch i {
		case 0:
			fmt.Fprintf(&b, "%g", a)
		case 1:
			fmt.Fprintf(&b, "%g*x", a)
		default:
			fmt.Fprintf(&b, "%g*x^%d", a, i)
		}
		first = false
	}
	return b.String()
}
