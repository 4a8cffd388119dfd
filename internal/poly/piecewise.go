package poly

import (
	"fmt"
	"math"
	"sort"
)

// Piecewise is a piecewise polynomial over the whole real line.
// Breaks must be strictly increasing; Pieces has exactly one more
// element than Breaks. Piece i applies on (Breaks[i-1], Breaks[i]], with
// piece 0 on (-inf, Breaks[0]] and the last piece on (Breaks[n-1], +inf).
//
// The paper's Model 1 is the instance {linear, quadratic, zero} with
// breaks {EF/q-0.08, EF/q+0.08}; Model 2 is {linear, quadratic, cubic,
// zero} with breaks {EF/q-0.28, EF/q-0.03, EF/q+0.12}.
type Piecewise struct {
	Breaks []float64
	Pieces []Poly
}

// NewPiecewise validates and constructs a piecewise polynomial.
func NewPiecewise(breaks []float64, pieces []Poly) (Piecewise, error) {
	if len(pieces) != len(breaks)+1 {
		return Piecewise{}, fmt.Errorf("poly: %d pieces need %d breaks, got %d",
			len(pieces), len(pieces)-1, len(breaks))
	}
	for i := 1; i < len(breaks); i++ {
		if !(breaks[i] > breaks[i-1]) {
			return Piecewise{}, fmt.Errorf("poly: breaks not strictly increasing at %d (%g, %g)",
				i, breaks[i-1], breaks[i])
		}
	}
	return Piecewise{
		Breaks: append([]float64(nil), breaks...),
		Pieces: append([]Poly(nil), pieces...),
	}, nil
}

// PieceIndex returns the index of the piece covering x.
func (pw Piecewise) PieceIndex(x float64) int {
	// First break >= x; sort.SearchFloat64s gives first >= x for
	// ascending data, which matches the half-open convention
	// (x == Breaks[i] belongs to piece i).
	return sort.SearchFloat64s(pw.Breaks, x)
}

// At evaluates the piecewise polynomial at x.
func (pw Piecewise) At(x float64) float64 {
	return pw.Pieces[pw.PieceIndex(x)].At(x)
}

// Deriv returns the piecewise derivative (breaks unchanged).
func (pw Piecewise) Deriv() Piecewise {
	d := Piecewise{Breaks: append([]float64(nil), pw.Breaks...), Pieces: make([]Poly, len(pw.Pieces))}
	for i, p := range pw.Pieces {
		d.Pieces[i] = p.Deriv()
	}
	return d
}

// Shift returns the piecewise polynomial q(x) = pw(x + h); breaks move
// by -h accordingly.
func (pw Piecewise) Shift(h float64) Piecewise {
	out := Piecewise{Breaks: make([]float64, len(pw.Breaks)), Pieces: make([]Poly, len(pw.Pieces))}
	for i, b := range pw.Breaks {
		out.Breaks[i] = b - h
	}
	for i, p := range pw.Pieces {
		out.Pieces[i] = p.Shift(h)
	}
	return out
}

// MaxDegree returns the highest degree among the pieces.
func (pw Piecewise) MaxDegree() int {
	d := -1
	for _, p := range pw.Pieces {
		if p.Degree() > d {
			d = p.Degree()
		}
	}
	return d
}

// ContinuityError returns the largest absolute jump in value (c0) and in
// first derivative (c1) across all breakpoints. A correctly fitted
// model per the paper has both within fitting tolerance.
func (pw Piecewise) ContinuityError() (c0, c1 float64) {
	d := pw.Deriv()
	for i, b := range pw.Breaks {
		left, right := pw.Pieces[i].At(b), pw.Pieces[i+1].At(b)
		if j := math.Abs(right - left); j > c0 {
			c0 = j
		}
		dl, dr := d.Pieces[i].At(b), d.Pieces[i+1].At(b)
		if j := math.Abs(dr - dl); j > c1 {
			c1 = j
		}
	}
	return c0, c1
}
