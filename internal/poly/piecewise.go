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

// Scale returns k*pw.
func (pw Piecewise) Scale(k float64) Piecewise {
	out := Piecewise{Breaks: append([]float64(nil), pw.Breaks...), Pieces: make([]Poly, len(pw.Pieces))}
	for i, p := range pw.Pieces {
		out.Pieces[i] = p.Scale(k)
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

// SolveMonotone finds x with pw(x) + lin(x) = 0 where lin(x) = a*x + b
// and the total function is assumed strictly monotone increasing (the
// situation of the paper's eq. 7: CΣ·x plus monotone charge terms).
//
// It scans pieces from left to right, forms the per-piece polynomial
// pw_i(x) + a*x + b (degree <= 3 for the paper's models, so the root is
// closed-form), and accepts the unique root lying inside that piece's
// interval. A total that is negative at the right end of one piece and
// positive at the left end of the next crosses zero in the jump at
// their shared break — a fitted curve's pieces meet only to rounding —
// so the break is the root. Returns an error when no piece contains a
// root, which for a monotone function means the caller's assumption is
// violated.
func (pw Piecewise) SolveMonotone(a, b float64) (float64, error) {
	lin := New(b, a)
	n := len(pw.Pieces)
	for i := 0; i < n; i++ {
		lo, hi := math.Inf(-1), math.Inf(1)
		if i > 0 {
			lo = pw.Breaks[i-1]
		}
		if i < n-1 {
			hi = pw.Breaks[i]
		}
		total := pw.Pieces[i].Add(lin)
		// Quick interval rejection using monotonicity: the total must
		// change sign (or vanish) inside [lo,hi].
		flo := evalAtMaybeInf(total, lo, -1)
		fhi := evalAtMaybeInf(total, hi, +1)
		if flo > 0 {
			if i > 0 {
				return lo, nil
			}
			break
		}
		if fhi < 0 {
			continue
		}
		roots := rootsInMaybeInf(total, lo, hi)
		if len(roots) > 0 {
			// Monotone: at most one genuine root per piece; take the
			// one bracketed by the sign change (first suffices).
			return roots[0], nil
		}
	}
	return 0, fmt.Errorf("poly: SolveMonotone found no root; function not monotone or no sign change")
}

// evalAtMaybeInf evaluates p at x, substituting the sign of the leading
// behaviour when x is infinite (dir = -1 for -inf, +1 for +inf).
func evalAtMaybeInf(p Poly, x float64, dir int) float64 {
	if !math.IsInf(x, 0) {
		return p.At(x)
	}
	q := p
	q.trim()
	d := q.Degree()
	if d < 0 {
		return 0
	}
	if d == 0 {
		return q.Coef[0]
	}
	lead := q.Coef[d]
	sign := 1.0
	if dir < 0 && d%2 == 1 {
		sign = -1
	}
	return sign * lead * math.Inf(1)
}

func rootsInMaybeInf(p Poly, lo, hi float64) []float64 {
	roots := RealRoots(p)
	tol := 1e-12
	var out []float64
	for _, r := range roots {
		if (math.IsInf(lo, -1) || r >= lo-tol) && (math.IsInf(hi, 1) || r <= hi+tol) {
			out = append(out, r)
		}
	}
	return out
}
