package core

import (
	"fmt"
	"math"
	"sort"

	"cntfet/internal/fettoy"
	"cntfet/internal/poly"
)

// The generic piecewise-polynomial solve of eq. (7), the reference the
// allocation-free closed-form solver (solveVSCRow) is checked against.
// It builds the combined source+drain charge curve by merging the two
// breakpoint sets, scales it to the residual form, and walks it piece
// by piece with closed-form real roots. Every step allocates.

// solveVSCGeneric solves the self-consistent voltage equation through
// the generic piecewise machinery below.
func (m *Model) solveVSCGeneric(b fettoy.Bias) (float64, error) {
	vds := b.VD - b.VS

	// Combined filled-state charge as a function of V, scaled to the
	// residual form: F(V) = V + ulEff + combined(V) with
	// combined = -(qNS(V) + qNS(V+VDS))/CΣ.
	qs := m.vscCurve()
	qd := qs.Shift(vds)
	combined := scalePiecewise(addPiecewise(qs, qd), -1/m.csigma)
	v, err := solveMonotone(combined, 1, m.ulEff(b))
	if err != nil {
		return 0, fmt.Errorf("core: generic VSC solve failed at %+v: %w", b, err)
	}
	return v, nil
}

// vscCurve is the fitted q·NS curve on the absolute VSC axis as a
// generic Piecewise, qNS(V) = qsU(V - EF): the curve the model's cubic
// table holds.
func (m *Model) vscCurve() poly.Piecewise { return m.qsU.Shift(-m.dev.EF) }

// addPoly returns p + q.
func addPoly(p, q poly.Poly) poly.Poly {
	n := len(p.Coef)
	if len(q.Coef) > n {
		n = len(q.Coef)
	}
	out := make([]float64, n)
	copy(out, p.Coef)
	for i, a := range q.Coef {
		out[i] += a
	}
	return poly.New(out...)
}

// scalePoly returns k*p.
func scalePoly(p poly.Poly, k float64) poly.Poly {
	out := make([]float64, len(p.Coef))
	for i, a := range p.Coef {
		out[i] = k * a
	}
	return poly.New(out...)
}

// scalePiecewise returns k*pw.
func scalePiecewise(pw poly.Piecewise, k float64) poly.Piecewise {
	out := poly.Piecewise{Breaks: append([]float64(nil), pw.Breaks...), Pieces: make([]poly.Poly, len(pw.Pieces))}
	for i, p := range pw.Pieces {
		out.Pieces[i] = scalePoly(p, k)
	}
	return out
}

// addPiecewise returns the piecewise polynomial a + b. The result's
// breakpoints are the merged breakpoint sets; on every interval the
// piece is the sum of the covering pieces of a and b. Degrees add
// nothing: deg(sum) = max(deg a_i, deg b_j), which is what keeps the
// paper's combined source+drain charge solvable in closed form.
func addPiecewise(a, b poly.Piecewise) poly.Piecewise {
	breaks := mergeBreakLists(a.Breaks, b.Breaks)
	pieces := make([]poly.Poly, len(breaks)+1)
	for i := range pieces {
		// A representative point inside interval i selects the
		// covering pieces of a and b.
		x := intervalPoint(breaks, i)
		pieces[i] = addPoly(a.Pieces[a.PieceIndex(x)], b.Pieces[b.PieceIndex(x)])
	}
	return poly.Piecewise{Breaks: breaks, Pieces: pieces}
}

// mergeBreakLists merges two ascending break lists, dropping exact and
// near-coincident duplicates.
func mergeBreakLists(x, y []float64) []float64 {
	all := make([]float64, 0, len(x)+len(y))
	all = append(all, x...)
	all = append(all, y...)
	sort.Float64s(all)
	out := all[:0]
	for _, v := range all {
		if len(out) == 0 || v-out[len(out)-1] > 1e-12 {
			out = append(out, v)
		}
	}
	return append([]float64(nil), out...)
}

// intervalPoint returns a point strictly inside interval i of the break
// grid (piece 0 is (-inf, b0], the last piece (b_last, +inf)). For
// finite intervals it returns the midpoint; for the two unbounded ends
// a point one unit beyond the nearest break. Interval membership at the
// closed right endpoint is honoured by choosing points away from
// boundaries.
func intervalPoint(breaks []float64, i int) float64 {
	n := len(breaks)
	switch {
	case n == 0:
		return 0
	case i == 0:
		return breaks[0] - 1
	case i == n:
		return breaks[n-1] + 1
	default:
		return 0.5 * (breaks[i-1] + breaks[i])
	}
}

// solveMonotone finds x with pw(x) + lin(x) = 0 where lin(x) = a*x + b
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
func solveMonotone(pw poly.Piecewise, a, b float64) (float64, error) {
	lin := poly.New(b, a)
	n := len(pw.Pieces)
	for i := 0; i < n; i++ {
		lo, hi := math.Inf(-1), math.Inf(1)
		if i > 0 {
			lo = pw.Breaks[i-1]
		}
		if i < n-1 {
			hi = pw.Breaks[i]
		}
		total := addPoly(pw.Pieces[i], lin)
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
	return 0, fmt.Errorf("core: generic monotone solve found no root; function not monotone or no sign change")
}

// evalAtMaybeInf evaluates p at x, substituting the sign of the leading
// behaviour when x is infinite (dir = -1 for -inf, +1 for +inf).
func evalAtMaybeInf(p poly.Poly, x float64, dir int) float64 {
	if !math.IsInf(x, 0) {
		return p.At(x)
	}
	q := poly.New(p.Coef...)
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

func rootsInMaybeInf(p poly.Poly, lo, hi float64) []float64 {
	roots := realRoots(p)
	tol := 1e-12
	var out []float64
	for _, r := range roots {
		if (math.IsInf(lo, -1) || r >= lo-tol) && (math.IsInf(hi, 1) || r <= hi+tol) {
			out = append(out, r)
		}
	}
	return out
}

// realRoots returns the real roots of p in ascending order. Degrees 1-3
// are solved in closed form (linear formula, numerically stable
// quadratic formula, trigonometric/Cardano cubic). Higher degrees fall
// back to recursive bracketing between the extrema of p (roots of p').
//
// Multiple roots are reported once. The zero polynomial and constants
// report no roots.
func realRoots(p poly.Poly) []float64 {
	p2 := poly.New(p.Coef...)
	switch p2.Degree() {
	case -1, 0:
		return nil
	case 1:
		return []float64{-p2.Coef[0] / p2.Coef[1]}
	case 2:
		return quadraticRoots(p2.Coef[0], p2.Coef[1], p2.Coef[2])
	case 3:
		return cubicRoots(p2.Coef[0], p2.Coef[1], p2.Coef[2], p2.Coef[3])
	default:
		return bracketedRoots(p2)
	}
}

// quadraticRoots solves c0 + c1*x + c2*x^2 = 0 with the cancellation-safe
// form of the quadratic formula.
func quadraticRoots(c0, c1, c2 float64) []float64 {
	disc := c1*c1 - 4*c2*c0
	if disc < 0 {
		return nil
	}
	if disc == 0 { //lint:allow floatcmp closed-form discriminant branch
		return []float64{-c1 / (2 * c2)}
	}
	s := math.Sqrt(disc)
	var q float64
	if c1 >= 0 {
		q = -0.5 * (c1 + s)
	} else {
		q = -0.5 * (c1 - s)
	}
	r1 := q / c2
	var roots []float64
	if q != 0 { //lint:allow floatcmp exact-zero divisor guard
		roots = []float64{r1, c0 / q}
	} else {
		// c1 == 0 and c0 == 0: double root at 0 handled above; here
		// c0/c2 < 0 gives symmetric pair.
		roots = []float64{r1, -r1}
	}
	sort.Float64s(roots)
	if roots[0] == roots[1] { //lint:allow floatcmp dedups the exactly repeated quadratic root
		roots = roots[:1]
	}
	return roots
}

// cubicRoots solves c0 + c1*x + c2*x^2 + c3*x^3 = 0.
func cubicRoots(c0, c1, c2, c3 float64) []float64 {
	// Normalise to x^3 + a*x^2 + b*x + c.
	a := c2 / c3
	b := c1 / c3
	c := c0 / c3
	// Depressed cubic t^3 + p*t + q with x = t - a/3.
	p := b - a*a/3
	q := 2*a*a*a/27 - a*b/3 + c
	shift := -a / 3

	var roots []float64
	disc := q*q/4 + p*p*p/27
	switch {
	case disc > 0:
		// One real root (Cardano), written to avoid cancellation.
		sq := math.Sqrt(disc)
		u := math.Cbrt(-q/2 + sq)
		v := math.Cbrt(-q/2 - sq)
		roots = []float64{u + v + shift}
	case disc == 0: //lint:allow floatcmp closed-form discriminant branch
		if p == 0 { //lint:allow floatcmp exact triple root
			roots = []float64{shift}
		} else { // double + simple root
			r1 := 3 * q / p
			r2 := -3 * q / (2 * p)
			roots = []float64{r1 + shift, r2 + shift}
		}
	default:
		// Three distinct real roots: trigonometric method.
		m := 2 * math.Sqrt(-p/3)
		arg := 3 * q / (p * m)
		// Clamp against rounding slightly outside [-1,1].
		if arg > 1 {
			arg = 1
		} else if arg < -1 {
			arg = -1
		}
		theta := math.Acos(arg) / 3
		for k := 0; k < 3; k++ {
			roots = append(roots, m*math.Cos(theta-2*math.Pi*float64(k)/3)+shift)
		}
	}
	pc := poly.New(c0, c1, c2, c3)
	for i := range roots {
		roots[i] = polish(pc, roots[i])
	}
	sort.Float64s(roots)
	return dedupe(roots)
}

// polish runs up to four Newton steps to tighten a closed-form root that
// may carry rounding from the trigonometric/Cardano path. It never moves
// a root by more than a small multiple of its magnitude.
func polish(p poly.Poly, x float64) float64 {
	d := p.Deriv()
	for i := 0; i < 4; i++ {
		fx := p.At(x)
		if fx == 0 { //lint:allow floatcmp residual exactly zero is an exact root
			return x
		}
		dx := d.At(x)
		if dx == 0 { //lint:allow floatcmp exact-zero derivative guard before dividing
			return x
		}
		step := fx / dx
		lim := 1e-3 * (math.Abs(x) + 1)
		if math.Abs(step) > lim {
			return x // closed form was already the authority
		}
		x -= step
	}
	return x
}

func dedupe(sorted []float64) []float64 {
	if len(sorted) == 0 {
		return sorted
	}
	out := sorted[:1]
	for _, r := range sorted[1:] {
		prev := out[len(out)-1]
		tol := 1e-10 * (math.Abs(prev) + math.Abs(r) + 1e-30)
		if math.Abs(r-prev) > tol {
			out = append(out, r)
		}
	}
	return out
}

// bracketedRoots finds the real roots of a degree >= 4 polynomial by
// recursively locating the extrema (roots of the derivative) and
// bisecting each sign-changing interval between consecutive extrema.
func bracketedRoots(p poly.Poly) []float64 {
	crit := realRoots(p.Deriv())
	// Establish an interval that contains all roots (Cauchy bound).
	bound := cauchyBound(p)
	pts := []float64{-bound}
	for _, c := range crit {
		if c > -bound && c < bound {
			pts = append(pts, c)
		}
	}
	pts = append(pts, bound)
	sort.Float64s(pts)
	var roots []float64
	for i := 0; i+1 < len(pts); i++ {
		a, b := pts[i], pts[i+1]
		fa, fb := p.At(a), p.At(b)
		if fa == 0 { //lint:allow floatcmp residual exactly zero is an exact root
			roots = append(roots, a)
			continue
		}
		if fa*fb < 0 {
			roots = append(roots, bisectPoly(p, a, b))
		}
	}
	if p.At(bound) == 0 { //lint:allow floatcmp residual exactly zero is an exact root
		roots = append(roots, bound)
	}
	sort.Float64s(roots)
	return dedupe(roots)
}

func cauchyBound(p poly.Poly) float64 {
	n := len(p.Coef)
	lead := math.Abs(p.Coef[n-1])
	mx := 0.0
	for _, c := range p.Coef[:n-1] {
		if a := math.Abs(c); a > mx {
			mx = a
		}
	}
	return 1 + mx/lead
}

func bisectPoly(p poly.Poly, a, b float64) float64 {
	fa := p.At(a)
	for i := 0; i < 200; i++ {
		m := 0.5 * (a + b)
		if m == a || m == b { //lint:allow floatcmp midpoint collapse: float resolution exhausted
			return m
		}
		fm := p.At(m)
		if fm == 0 { //lint:allow floatcmp residual exactly zero is an exact root
			return m
		}
		if fa*fm < 0 {
			b = m
		} else {
			a, fa = m, fm
		}
	}
	return 0.5 * (a + b)
}

// rootsIn returns the real roots of p inside the closed interval
// [lo, hi], in ascending order. A root landing within tol of an
// endpoint is included; tol scales with the interval width.
func rootsIn(p poly.Poly, lo, hi float64) []float64 {
	tol := 1e-12 * (math.Abs(hi-lo) + 1)
	var out []float64
	for _, r := range realRoots(p) {
		if r >= lo-tol && r <= hi+tol {
			out = append(out, math.Min(math.Max(r, lo), hi))
		}
	}
	return out
}
