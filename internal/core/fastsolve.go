package core

import (
	"math"

	"cntfet/internal/poly"
	"cntfet/internal/telemetry"
)

// Region-dispatch branches of the closed-form solve, used as indices
// into the dispatch counter array. The split mirrors solveMonotoneCubic:
// which closed-form root formula the bracketed region required.
const (
	dispatchNone      = iota // no root in the bracketed region
	dispatchLinear           // degree-1 region
	dispatchQuadratic        // degree-2 region
	dispatchCardano          // cubic, one real root (Cardano)
	dispatchTrig             // cubic, three real roots (trigonometric)
	dispatchCount
)

// metrics holds the pre-resolved telemetry handles of the piecewise
// solver. Unlike the reference model, this path runs in ~0.2 µs, so
// every call site gates on telemetry.On() — with the gate off the only
// cost is one atomic bool load per solve.
var metrics = struct {
	solves   *telemetry.Counter
	dispatch [dispatchCount]*telemetry.Counter
}{
	solves: telemetry.Default().Counter(telemetry.KeyCoreSolves),
	dispatch: [dispatchCount]*telemetry.Counter{
		telemetry.Default().Counter(telemetry.KeyCoreDispatchNone),
		telemetry.Default().Counter(telemetry.KeyCoreDispatchLinear),
		telemetry.Default().Counter(telemetry.KeyCoreDispatchQuadratic),
		telemetry.Default().Counter(telemetry.KeyCoreDispatchCardano),
		telemetry.Default().Counter(telemetry.KeyCoreDispatchTrig),
	},
}

// The hot path of the paper: solving the self-consistent voltage
// equation in closed form. Generic piecewise-polynomial arithmetic
// allocates (Taylor shifts, break merging); at one call per bias point
// in a circuit simulator that overhead would swamp the polynomial
// arithmetic itself, so the solve runs on stack-allocated degree-3
// coefficient arrays. The tests cross-check it against a generic
// piecewise solver kept in test code.

// cubic is a polynomial of degree <= 3, coef[i]·x^i.
type cubic [4]float64

func (c cubic) at(x float64) float64 {
	return c[0] + x*(c[1]+x*(c[2]+x*c[3]))
}

func (c cubic) deriv(x float64) float64 {
	return c[1] + x*(2*c[2]+x*3*c[3])
}

// shifted returns the coefficients of q(x) = c(x + h).
func (c cubic) shifted(h float64) cubic {
	return cubic{
		c[0] + h*(c[1]+h*(c[2]+h*c[3])),
		c[1] + h*(2*c[2]+3*h*c[3]),
		c[2] + 3*h*c[3],
		c[3],
	}
}

// solveVSCFast solves F(V) = V + ul - (QS(V) + QS(V+vds))/CΣ = 0 using
// the model's piecewise cubic charge curve, without allocation beyond
// two small stack arrays. F is strictly increasing (CΣ plus a positive
// quantum-capacitance term), so the sign of F at the merged breakpoints
// brackets the root into exactly one region, where the closed-form
// root of the region's polynomial applies (paper section V). It is the
// cold-cursor case of the row kernel below.
func (m *Model) solveVSCFast(ul, vds float64) (float64, int, bool) {
	cursor := -1
	return m.solveVSCRow(ul, vds, &cursor)
}

// mergeBreaks writes the ascending merge of the model's breakpoints
// b_i (where QS(V) changes pieces) and b_i - vds (where QS(V+vds)
// does) into cand. Both inputs are already sorted, so a two-pointer
// merge does it in one pass; the candidate multiset — and therefore
// every decision downstream — is identical to sorting the interleaved
// pairs.
func (m *Model) mergeBreaks(vds float64, cand *[2 * maxBreaks]float64) int {
	breaks := m.fastBreaks
	i, j, k := 0, 0, 0
	for i < len(breaks) && j < len(breaks) {
		if a, b := breaks[i], breaks[j]-vds; a <= b {
			cand[k] = a
			i++
		} else {
			cand[k] = b
			j++
		}
		k++
	}
	for ; i < len(breaks); i++ {
		cand[k] = breaks[i]
		k++
	}
	for ; j < len(breaks); j++ {
		cand[k] = breaks[j] - vds
		k++
	}
	return k
}

// bracketScan is one solve's merged breakpoint list and the terms of
// its residual F(V) = V + ul - (QS(V) + QS(V+vds))/CΣ.
type bracketScan struct {
	m            *Model
	cand         [2 * maxBreaks]float64
	ul, vds, inv float64 // inv = 1/CΣ
}

// f is F at candidate i, by point evaluations of QS.
func (s *bracketScan) f(i int) float64 {
	b := s.cand[i]
	return b + s.ul - s.inv*(s.m.qsFast(b)+s.m.qsFast(b+s.vds))
}

// skip reports a coincident break: a candidate within 1e-15 of its left
// neighbour. The scan skips it, so a bracket never collapses to zero
// width.
func (s *bracketScan) skip(i int) bool { return i > 0 && s.cand[i]-s.cand[i-1] < 1e-15 }

// prev returns the largest non-coincident index < i, or -1.
func (s *bracketScan) prev(i int) int {
	for j := i - 1; j >= 0; j-- {
		if !s.skip(j) {
			return j
		}
	}
	return -1
}

// solveVSCRow is the region-dispatch-hoisted solve the batch kernel
// runs per point: *cursor carries the index of the previous point's
// bracketing breakpoint, so a run of neighbouring bias points whose
// roots share a piecewise segment verifies the cached bracket with two
// residual sign checks instead of re-scanning the merged breakpoint
// list from the bottom. A cursor of -1 (or a stale hint) degrades to
// exactly the cold scan. The (lo, hi] bracket, the assembled residual
// polynomial and hence the returned root are bit-identical to the
// cold-scan path's: only the order of sign evaluations changes, and F
// is monotone across the scanned breakpoints.
//
// ok is false only when the bracket's polynomial has no root in
// (lo, hi] and no jump at lo holds it (see below), which for a
// monotone residual cannot happen.
func (m *Model) solveVSCRow(ul, vds float64, cursor *int) (float64, int, bool) {
	// Spec.Validate caps a model at maxBreaks, so the merged source
	// and drain breaks always fit the stack buffer.
	s := bracketScan{m: m, ul: ul, vds: vds, inv: 1 / m.csigma}
	n := m.mergeBreaks(vds, &s.cand)

	// Locate h, the first scanned candidate with F >= 0 (h == n means
	// the root lies beyond every break). With a cursor hint the common
	// case is confirming F(h) >= 0 > F(prev); without one — or when
	// the hint misses — scan like the cold path.
	h := *cursor
	if h >= 0 {
		if h > n {
			h = n
		}
		for h < n && s.skip(h) {
			h++
		}
		if h < n && s.f(h) < 0 {
			// Root moved up: resume the upward scan past the hint.
			next := n
			for i := h + 1; i < n; i++ {
				if s.skip(i) {
					continue
				}
				if s.f(i) >= 0 {
					next = i
					break
				}
			}
			h = next
		} else {
			// F(h) >= 0 (or h == n): walk down while the predecessor
			// also clears zero, so h ends on the first crossing.
			for {
				p := s.prev(h)
				if p < 0 || s.f(p) < 0 {
					break
				}
				h = p
			}
		}
	} else {
		h = n
		for i := 0; i < n; i++ {
			if s.skip(i) {
				continue
			}
			if s.f(i) >= 0 {
				h = i
				break
			}
		}
	}
	*cursor = h

	lo, hi := math.Inf(-1), math.Inf(1)
	if h < n {
		hi = s.cand[h]
	}
	if p := s.prev(h); p >= 0 {
		lo = s.cand[p]
	}

	f := m.fTotal(pick(lo, hi), ul, vds)
	v, branch, ok := solveMonotoneCubic(f, lo, hi)
	if !ok && !math.IsInf(lo, -1) && f.at(lo) > 0 {
		// F(lo) < 0 on the pieces left of lo, yet the bracket's own
		// pieces are already positive there: they meet in a jump at
		// lo (fitted pieces meet only to within newModel's C0
		// tolerance), and the monotone residual crosses zero inside
		// it, so the break is the root.
		return lo, branch, true
	}
	return v, branch, ok
}

// countDispatch records one closed-form solve's branch; the caller
// gates on telemetry.On() so the disabled path stays branch-only.
func countDispatch(branch int) {
	metrics.solves.Inc()
	metrics.dispatch[branch].Inc()
}

// flushDispatch records a whole batch's solves with one atomic add per
// touched instrument. The row kernel accumulates into a local array so
// its inner loop carries no shared-counter traffic; totals match
// per-point countDispatch exactly.
func flushDispatch(counts *[dispatchCount]int64, solves int64) {
	metrics.solves.Add(solves)
	for br, c := range counts {
		if c != 0 {
			metrics.dispatch[br].Add(c)
		}
	}
}

// pick returns a representative point inside (lo, hi].
func pick(lo, hi float64) float64 {
	switch {
	case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		return 0
	case math.IsInf(lo, -1):
		return hi - 1e-9
	case math.IsInf(hi, 1):
		return lo + 1
	default:
		return 0.5 * (lo + hi)
	}
}

// fTotal assembles the residual polynomial valid around point x:
// F(V) = V + ul - (QS(V) + QS(V+vds))/CΣ.
func (m *Model) fTotal(x, ul, vds float64) cubic {
	p := m.pieceAt(x)
	q := m.pieceAt(x + vds).shifted(vds)
	inv := -1 / m.csigma
	return cubic{
		ul + inv*(p[0]+q[0]),
		1 + inv*(p[1]+q[1]),
		inv * (p[2] + q[2]),
		inv * (p[3] + q[3]),
	}
}

// pieceAt returns the charge-curve coefficients covering VSC = x.
// Convention matches poly.Piecewise: piece i covers (b_{i-1}, b_i].
func (m *Model) pieceAt(x float64) *cubic {
	for i, b := range m.fastBreaks {
		if x <= b {
			return &m.fastCoef[i]
		}
	}
	return &m.fastCoef[len(m.fastCoef)-1]
}

// qsFast evaluates the fitted charge q·NS at VSC = x.
func (m *Model) qsFast(x float64) float64 { return m.pieceAt(x).at(x) }

// solveMonotoneCubic finds the root of an increasing polynomial of
// degree <= 3 inside (lo, hi], in closed form, with a final Newton
// polish. ok is false when no root lies in the interval (which for a
// monotone residual means the bracketing logic failed upstream). The
// middle return reports which dispatch branch produced the root, for
// the region-dispatch histogram.
func solveMonotoneCubic(c cubic, lo, hi float64) (float64, int, bool) {
	switch {
	case c[3] != 0: //lint:allow floatcmp exact degree dispatch on the stored coefficient
		// Depressed cubic via Cardano / trigonometric form.
		a, b, d := c[2]/c[3], c[1]/c[3], c[0]/c[3]
		p := b - a*a/3
		q := 2*a*a*a/27 - a*b/3 + d
		shift := -a / 3
		disc := q*q/4 + p*p*p/27
		if disc > 0 {
			sq := math.Sqrt(disc)
			r := math.Cbrt(-q/2+sq) + math.Cbrt(-q/2-sq) + shift
			v, ok := tryRoot(c, lo, hi, r)
			return v, dispatchCardano, ok
		}
		if p == 0 { //lint:allow floatcmp exact depressed-cubic degenerate branch
			v, ok := tryRoot(c, lo, hi, shift)
			return v, dispatchCardano, ok
		}
		mmod := 2 * math.Sqrt(-p/3)
		arg := 3 * q / (p * mmod)
		if arg > 1 {
			arg = 1
		} else if arg < -1 {
			arg = -1
		}
		theta := math.Acos(arg) / 3
		for k := 0; k < 3; k++ {
			r := mmod*math.Cos(theta-2*math.Pi*float64(k)/3) + shift
			if v, ok := tryRoot(c, lo, hi, r); ok {
				return v, dispatchTrig, true
			}
		}
		return 0, dispatchNone, false
	case c[2] != 0: //lint:allow floatcmp exact degree dispatch on the stored coefficient
		disc := c[1]*c[1] - 4*c[2]*c[0]
		if disc < 0 {
			return 0, dispatchNone, false
		}
		sq := math.Sqrt(disc)
		var qq float64
		if c[1] >= 0 {
			qq = -0.5 * (c[1] + sq)
		} else {
			qq = -0.5 * (c[1] - sq)
		}
		if v, ok := tryRoot(c, lo, hi, qq/c[2]); ok {
			return v, dispatchQuadratic, true
		}
		if qq != 0 { //lint:allow floatcmp exact-zero divisor guard
			v, ok := tryRoot(c, lo, hi, c[0]/qq)
			return v, dispatchQuadratic, ok
		}
		return 0, dispatchNone, false
	case c[1] != 0: //lint:allow floatcmp exact degree dispatch on the stored coefficient
		v, ok := tryRoot(c, lo, hi, -c[0]/c[1])
		return v, dispatchLinear, ok
	default:
		return 0, dispatchNone, false
	}
}

// tryRoot accepts a closed-form root r of c that lies in (lo, hi], to
// within 1e-12, and tightens it with one Newton polish step. A
// candidate whose polish step is not below 1e-3·(1+|r|) is no root of
// c — cancellation in the closed form lost it, as the trigonometric
// form does when c₃ is tiny next to c₂ — and counts as a miss.
func tryRoot(c cubic, lo, hi, r float64) (float64, bool) {
	const tol = 1e-12
	if !((math.IsInf(lo, -1) || r >= lo-tol) && (math.IsInf(hi, 1) || r <= hi+tol)) {
		return 0, false
	}
	if d := c.deriv(r); d != 0 { //lint:allow floatcmp exact-zero derivative guard before dividing
		step := c.at(r) / d
		if !(math.Abs(step) < 1e-3*(1+math.Abs(r))) {
			return 0, false
		}
		r -= step
	}
	return r, true
}

// initFast builds the VSC-space form of the fitted curve from qsU,
// qNS(V) = qsU(V - EF): each break moves by +EF and each piece is
// Taylor-shifted by -EF into a zero-padded cubic. The fitted pieces
// carry no trailing zero, so these are the bits of qsU.Shift(-EF).
// Called once at construction.
func (m *Model) initFast() {
	h := -m.dev.EF
	m.fastBreaks = make([]float64, len(m.qsU.Breaks))
	for i, b := range m.qsU.Breaks {
		m.fastBreaks[i] = b - h
	}
	m.fastCoef = make([]cubic, len(m.qsU.Pieces))
	for i, p := range m.qsU.Pieces {
		c := m.fastCoef[i][:]
		poly.ShiftCoef(c[:copy(c, p.Coef)], h)
	}
}
