package poly

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"cntfet/internal/linalg"
)

// PieceSpec describes one piece of a piecewise fit: either a free
// polynomial of the given degree, or a fixed polynomial excluded from
// the optimisation (the paper's "zero" region is Fixed = the zero
// polynomial).
type PieceSpec struct {
	Degree int
	Fixed  *Poly
}

// FitPiecewiseWeighted jointly fits a piecewise polynomial to the
// samples (xs, ys) given interior breakpoints and per-piece
// specifications, minimising Σ w_i·(p(x_i) − y_i)² subject to
// continuity at every breakpoint: orders[i] applies at breaks[i], 0 =
// value only, 1 = value and first derivative. The paper's models use C¹
// at joins between free polynomials but only C⁰ where the curve enters
// the zero region — full C¹ against the zero piece would leave Model 1
// a single degree of freedom. A negative order means 0; orders itself
// is left as passed.
//
// The fit solves the equality-constrained linear least-squares problem
// via the KKT system
//
//	| 2·AᵀA  Cᵀ | |c|   |2·Aᵀy|
//	|  C     0  | |λ| = |  d  |
//
// where A is the (weighted) block Vandermonde design matrix — each
// sample row only touches the coefficients of the piece containing it —
// and C encodes the continuity constraints plus the matching conditions
// against fixed pieces.
//
// Weights (nil means uniform) let the charge fit trade absolute
// accuracy in the high-charge region for relative accuracy near the
// knee, where the subthreshold drain current is exponentially
// sensitive. Every weight must be finite and non-negative, even on
// samples a fixed piece covers.
//
// The KKT system is assembled in one flat row-major workspace and
// solved in place. The workspace is borrowed from a pool and zeroed
// before use, so the returned Piecewise holds only its own breaks and
// coefficients. Samples in ascending order are routed to their pieces
// in one forward pass; any order gives the same result.
func FitPiecewiseWeighted(breaks []float64, specs []PieceSpec, xs, ys, weights []float64, orders []int) (Piecewise, error) {
	if weights != nil && len(weights) != len(xs) {
		return Piecewise{}, fmt.Errorf("poly: %d weights for %d samples", len(weights), len(xs))
	}
	if len(specs) != len(breaks)+1 {
		return Piecewise{}, fmt.Errorf("poly: %d specs need %d breaks, got %d", len(specs), len(specs)-1, len(breaks))
	}
	if len(orders) != len(breaks) {
		return Piecewise{}, fmt.Errorf("poly: %d continuity orders for %d breaks", len(orders), len(breaks))
	}
	if len(xs) != len(ys) {
		return Piecewise{}, fmt.Errorf("poly: sample length mismatch")
	}
	for k, w := range weights {
		if !(w >= 0) || math.IsInf(w, 1) {
			return Piecewise{}, fmt.Errorf("poly: weight %g at sample %d is not a finite non-negative number", w, k)
		}
	}
	maxOrder := 0
	for _, o := range orders {
		maxOrder = max(maxOrder, o)
	}
	for i := 1; i < len(breaks); i++ {
		if !(breaks[i] > breaks[i-1]) {
			return Piecewise{}, fmt.Errorf("poly: breaks not strictly increasing")
		}
	}

	sc := kktPool.Get().(*kktScratch)
	defer kktPool.Put(sc)

	// Coefficient layout: offset[i] is the first unknown of piece i
	// (fixed pieces own no unknowns).
	nPieces := len(specs)
	sc.offset = slices.Grow(sc.offset[:0], nPieces)[:nPieces]
	offset := sc.offset
	nUnknown := 0
	for i, s := range specs {
		offset[i] = nUnknown
		if s.Fixed == nil {
			if s.Degree < 0 {
				return Piecewise{}, fmt.Errorf("poly: piece %d has negative degree", i)
			}
			nUnknown += s.Degree + 1
		}
	}
	if nUnknown == 0 {
		// Everything fixed: assemble and verify the requested continuity.
		pieces := make([]Poly, nPieces)
		for i, s := range specs {
			pieces[i] = *s.Fixed
		}
		pw, err := NewPiecewise(breaks, pieces)
		if err != nil {
			return Piecewise{}, err
		}
		c0, c1 := pw.ContinuityError()
		if c0 > 1e-9 || (maxOrder >= 1 && c1 > 1e-9) {
			return Piecewise{}, fmt.Errorf("poly: fixed pieces violate continuity (c0=%g, c1=%g)", c0, c1)
		}
		return pw, nil
	}

	// Constraint rows follow the unknowns: one per break b between
	// pieces i, i+1 and derivative order ord ≤ orders[i] that touches an
	// unknown (see constrainSide).
	nc := 0
	for bi := range breaks {
		for ord := 0; ord <= max(orders[bi], 0); ord++ {
			if constrains(specs[bi], ord) || constrains(specs[bi+1], ord) {
				nc++
			}
		}
	}

	// Assemble and solve the KKT system: 2·AᵀA and 2·Aᵀy first.
	n := nUnknown + nc
	sc.work = slices.Grow(sc.work[:0], n*n+n)[:n*n+n]
	clear(sc.work)
	kkt, rhs := sc.work[:n*n], sc.work[n*n:]
	rows := normalEquations(kkt, n, rhs, breaks, specs, offset, xs, ys, weights)
	if rows < nUnknown {
		return Piecewise{}, fmt.Errorf("poly: %d usable samples cannot determine %d coefficients", rows, nUnknown)
	}
	for i := 0; i < nUnknown; i++ {
		row := kkt[i*n : i*n+nUnknown]
		for j := range row {
			row[j] = 2 * row[j]
		}
		rhs[i] *= 2
	}
	r := nUnknown
	for bi, b := range breaks {
		left, right := specs[bi], specs[bi+1]
		for ord := 0; ord <= max(orders[bi], 0); ord++ {
			if !constrains(left, ord) && !constrains(right, ord) {
				// Nothing to fit: verify the fixed sides agree instead.
				d := constrainSide(nil, 0, left, 0, ord, b, 1)
				if d = constrainSide(nil, d, right, 0, ord, b, -1); math.Abs(d) > 1e-9 {
					return Piecewise{}, fmt.Errorf("poly: fixed pieces violate continuity at break %g", b)
				}
				continue
			}
			con := kkt[r*n : r*n+nUnknown]
			rhs[r] = constrainSide(con, rhs[r], left, offset[bi], ord, b, 1)
			rhs[r] = constrainSide(con, rhs[r], right, offset[bi+1], ord, b, -1)
			for c, v := range con {
				kkt[c*n+r] = v
			}
			r++
		}
	}
	if err := linalg.SolveInPlace(n, kkt, rhs); err != nil {
		return Piecewise{}, fmt.Errorf("poly: constrained fit: %w", err)
	}

	coef := append([]float64(nil), rhs[:nUnknown]...)
	pieces := make([]Poly, nPieces)
	for i, s := range specs {
		if s.Fixed != nil {
			pieces[i] = *s.Fixed
			continue
		}
		lo, hi := offset[i], offset[i]+s.Degree+1
		pieces[i] = Poly{Coef: coef[lo:hi:hi]}
		pieces[i].trim()
	}
	return Piecewise{Breaks: append([]float64(nil), breaks...), Pieces: pieces}, nil
}

// kktScratch is one FitPiecewiseWeighted call's workspace: the piece
// offsets and the flat KKT matrix with its right-hand side.
type kktScratch struct {
	offset []int
	work   []float64
}

// kktPool lends each fit its workspace. A garbage collection empties
// it, so an idle process holds no KKT buffer.
var kktPool = sync.Pool{New: func() any { return new(kktScratch) }}

// constrains reports whether the ord-th derivative matching at a break
// touches an unknown of piece s.
func constrains(s PieceSpec, ord int) bool {
	return s.Fixed == nil && ord <= s.Degree
}

// constrainSide adds piece s's side of the ord-th derivative matching
// p_i^(ord)(b) − p_{i+1}^(ord)(b) = 0 at break b (sign +1 for the left
// piece, −1 for the right): a free piece's monomial derivatives fill its
// columns (from off) of the constraint row con, and a fixed piece's
// value moves to the right-hand side rhs, which is returned.
func constrainSide(con []float64, rhs float64, s PieceSpec, off, ord int, b, sign float64) float64 {
	if s.Fixed != nil {
		return rhs - sign*nthDerivAt(*s.Fixed, ord, b)
	}
	for j := ord; j <= s.Degree; j++ {
		con[off+j] = sign * derivMonomial(j, ord, b)
	}
	return rhs
}

// pieceOf returns Piecewise{Breaks: breaks}.PieceIndex(x), searching
// from piece pi (the previous sample's), so ascending samples are
// routed in one forward pass. NaN, like in PieceIndex, lands in the
// last piece.
func pieceOf(breaks []float64, pi int, x float64) int {
	for pi > 0 && x <= breaks[pi-1] {
		pi--
	}
	for pi < len(breaks) && !(x <= breaks[pi]) {
		pi++
	}
	return pi
}

// normalEquations adds AᵀA to the top-left unknowns block of the n×n
// row-major kkt and Aᵀy to the head of rhs, and returns the number of
// design rows, where A is the weighted block Vandermonde design matrix
// (row r = √w·[1, x, x², …] in the columns of the piece containing
// sample x, zero elsewhere; samples in fixed pieces are no rows) and y
// the weighted targets. It accumulates one design row at a time instead
// of materialising A and its transpose, visiting only the row's own
// piece. Every (i, j) entry still sums its row products in sample
// order, and rows whose A[r][i] is exactly zero are skipped for AᵀA, so
// the result is bit-identical to A.T().Mul(A) and A.T().MulVec(y).
func normalEquations(kkt []float64, n int, rhs, breaks []float64, specs []PieceSpec, offset []int, xs, ys, weights []float64) int {
	rows, pi := 0, 0
	for k, x := range xs {
		pi = pieceOf(breaks, pi, x)
		s := specs[pi]
		if s.Fixed != nil {
			continue
		}
		rows++
		w := 1.0
		if weights != nil {
			w = math.Sqrt(weights[k])
		}
		yr := w * ys[k]
		off := offset[pi]
		ai := w // A[r][off+i] = w·x^i
		for i := 0; i <= s.Degree; i++ {
			rhs[off+i] += ai * yr
			if ai != 0 { //lint:allow floatcmp mirrors Matrix.Mul's exact-zero skip
				row := kkt[(off+i)*n+off : (off+i)*n+off+s.Degree+1]
				aj := w
				for j := range row {
					row[j] += ai * aj
					aj *= x
				}
			}
			ai *= x
		}
	}
	return rows
}

// derivMonomial returns d^ord/dx^ord [x^j] evaluated at x.
func derivMonomial(j, ord int, x float64) float64 {
	if ord > j {
		return 0
	}
	f := 1.0
	for k := 0; k < ord; k++ {
		f *= float64(j - k)
	}
	return f * math.Pow(x, float64(j-ord))
}

// nthDerivAt evaluates the ord-th derivative of p at x.
func nthDerivAt(p Poly, ord int, x float64) float64 {
	for k := 0; k < ord; k++ {
		p = p.Deriv()
	}
	return p.At(x)
}

// RMS returns the root-mean-square deviation of f from the samples.
func RMS(f func(float64) float64, xs, ys []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for i, x := range xs {
		d := f(x) - ys[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(xs)))
}
