package poly

import (
	"math"
	"testing"

	"cntfet/internal/linalg"
	"cntfet/internal/units"
)

// designMatrix builds the weighted block Vandermonde matrix A and target
// y explicitly: the form normalEquations accumulates without storing.
func designMatrix(pw Piecewise, specs []PieceSpec, offset []int, nUnknown int, xs, ys, weights []float64) (*linalg.Matrix, []float64) {
	var rows int
	for _, x := range xs {
		if specs[pw.PieceIndex(x)].Fixed == nil {
			rows++
		}
	}
	a := linalg.NewMatrix(rows, nUnknown)
	y := make([]float64, rows)
	r := 0
	for k, x := range xs {
		pi := pw.PieceIndex(x)
		if specs[pi].Fixed != nil {
			continue
		}
		w := 1.0
		if weights != nil {
			w = math.Sqrt(weights[k])
		}
		v := w
		for j := 0; j <= specs[pi].Degree; j++ {
			a.Set(r, offset[pi]+j, v)
			v *= x
		}
		y[r] = w * ys[k]
		r++
	}
	return a, y
}

// fitCase is one region structure of the charge models, with the
// flavours of fixed piece the fit must route around.
type fitCase struct {
	name   string
	breaks []float64
	specs  []PieceSpec
	orders []int
}

func fitCases() []fitCase {
	zero, knee := Poly{}, New(2e-12, -1e-11, 4e-11)
	return []fitCase{
		{"model1", []float64{-0.08, 0.08}, []PieceSpec{{Degree: 1}, {Degree: 2}, {Fixed: &zero}}, []int{1, 0}},
		{"model2", []float64{-0.28, -0.03, 0.12}, []PieceSpec{{Degree: 1}, {Degree: 2}, {Degree: 3}, {Fixed: &zero}}, []int{1, 1, 0}},
		{"tail-C1", []float64{-0.08, 0.08}, []PieceSpec{{Degree: 1}, {Degree: 2}, {Fixed: &zero}}, []int{1, 1}},
		// A fixed non-zero piece between free ones moves its values to
		// the constraint right-hand side from both sides.
		{"fixed-middle", []float64{-0.3, 0, 0.1}, []PieceSpec{{Degree: 2}, {Fixed: &knee}, {Degree: 1}, {Fixed: &zero}}, []int{1, 0, 0}},
	}
}

// chargeSamples is a charge-like curve (softplus of -u at a 26 meV
// width, in C/m) with relative-error weights. The samples include
// x = 0, out of order at the end, and a zero-weight sample, which
// exercise the backward piece search and the exact-zero skip.
func chargeSamples() (xs, ys, weights []float64) {
	xs = append(units.Linspace(-0.65, 0.35, 240), 0)
	ys = make([]float64, len(xs))
	ymax := 0.0
	for i, x := range xs {
		ys[i] = 1e-10 * 0.026 * math.Log1p(math.Exp(-x/0.026))
		ymax = math.Max(ymax, ys[i])
	}
	weights = make([]float64, len(xs))
	for i, y := range ys {
		d := y + 0.05*ymax
		weights[i] = 1 / (d * d)
	}
	weights[17] = 0
	return xs, ys, weights
}

func layout(specs []PieceSpec) (offset []int, nUnknown int) {
	offset = make([]int, len(specs))
	for i, s := range specs {
		offset[i] = nUnknown
		if s.Fixed == nil {
			nUnknown += s.Degree + 1
		}
	}
	return offset, nUnknown
}

// TestNormalEquationsMatchDesignMatrix pins the row-by-row accumulation
// into the flat workspace bit for bit against A.T().Mul(A) and
// A.T().MulVec(y), weighted and unweighted, at the block's own width and
// inside a wider KKT stride.
func TestNormalEquationsMatchDesignMatrix(t *testing.T) {
	xs, ys, weights := chargeSamples()
	for _, c := range fitCases() {
		for _, w := range [][]float64{nil, weights} {
			offset, nUnknown := layout(c.specs)
			pw := Piecewise{Breaks: c.breaks}
			a, y := designMatrix(pw, c.specs, offset, nUnknown, xs, ys, w)
			ata, aty := a.T().Mul(a), a.T().MulVec(y)

			for _, n := range []int{nUnknown, nUnknown + 3} {
				kkt := make([]float64, n*n)
				rhs := make([]float64, n)
				if rows := normalEquations(kkt, n, rhs, c.breaks, c.specs, offset, xs, ys, w); rows != a.Rows() {
					t.Fatalf("%s: %d design rows, want %d", c.name, rows, a.Rows())
				}
				for i := 0; i < n; i++ {
					want := 0.0
					if i < nUnknown {
						want = aty[i]
					}
					if math.Float64bits(rhs[i]) != math.Float64bits(want) {
						t.Fatalf("%s weighted=%v n=%d: Aᵀy[%d] = %x, want %x", c.name, w != nil, n, i, rhs[i], want)
					}
					for j := 0; j < n; j++ {
						want := 0.0
						if i < nUnknown && j < nUnknown {
							want = ata.At(i, j)
						}
						if got := kkt[i*n+j]; math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s weighted=%v n=%d: AᵀA[%d][%d] = %x, want %x", c.name, w != nil, n, i, j, got, want)
						}
					}
				}
			}
		}
	}
}

// denseKKT assembles the constrained fit's KKT system the plain way: a
// dense linalg.Matrix from A.T().Mul(A), and one constraint row per
// (break, order) built from its column list. FitPiecewiseWeighted's flat
// assembly must reproduce it bit for bit.
func denseKKT(c fitCase, xs, ys, weights []float64) (*linalg.Matrix, []float64) {
	offset, nUnknown := layout(c.specs)
	pw := Piecewise{Breaks: c.breaks}
	a, y := designMatrix(pw, c.specs, offset, nUnknown, xs, ys, weights)
	ata, aty := a.T().Mul(a), a.T().MulVec(y)
	type conRow struct {
		cols []int
		vals []float64
		rhs  float64
	}
	var cons []conRow
	for bi, b := range c.breaks {
		for ord := 0; ord <= max(c.orders[bi], 0); ord++ {
			var r conRow
			for _, side := range [2]struct {
				pi   int
				sign float64
			}{{bi, 1}, {bi + 1, -1}} {
				pi, sign := side.pi, side.sign
				s := c.specs[pi]
				if s.Fixed != nil {
					r.rhs -= sign * nthDerivAt(*s.Fixed, ord, b)
					continue
				}
				for j := ord; j <= s.Degree; j++ {
					r.cols = append(r.cols, offset[pi]+j)
					r.vals = append(r.vals, sign*derivMonomial(j, ord, b))
				}
			}
			if len(r.cols) > 0 {
				cons = append(cons, r)
			}
		}
	}
	n := nUnknown + len(cons)
	kkt := linalg.NewMatrix(n, n)
	rhs := make([]float64, n)
	for i := 0; i < nUnknown; i++ {
		for j := 0; j < nUnknown; j++ {
			kkt.Set(i, j, 2*ata.At(i, j))
		}
		rhs[i] = 2 * aty[i]
	}
	for ci, r := range cons {
		for k, col := range r.cols {
			kkt.Set(nUnknown+ci, col, r.vals[k])
			kkt.Set(col, nUnknown+ci, r.vals[k])
		}
		rhs[nUnknown+ci] = r.rhs
	}
	return kkt, rhs
}

// TestFitPiecewiseMatchesDenseKKT compares the in-place fit, coefficient
// for coefficient, with SolveLU on the dense KKT system: the flat
// assembly and in-place solve change no bits.
func TestFitPiecewiseMatchesDenseKKT(t *testing.T) {
	xs, ys, weights := chargeSamples()
	for _, c := range fitCases() {
		for _, w := range [][]float64{nil, weights} {
			got, err := FitPiecewiseWeighted(c.breaks, c.specs, xs, ys, w, c.orders)
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			kkt, rhs := denseKKT(c, xs, ys, w)
			sol, err := linalg.SolveLU(kkt, rhs)
			if err != nil {
				t.Fatal(err)
			}
			offset, _ := layout(c.specs)
			for i, s := range c.specs {
				var want Poly
				if s.Fixed != nil {
					want = *s.Fixed
				} else {
					want = New(sol[offset[i] : offset[i]+s.Degree+1]...)
				}
				if len(got.Pieces[i].Coef) != len(want.Coef) {
					t.Fatalf("%s weighted=%v piece %d: %v, want %v", c.name, w != nil, i, got.Pieces[i].Coef, want.Coef)
				}
				for j, v := range want.Coef {
					if math.Float64bits(got.Pieces[i].Coef[j]) != math.Float64bits(v) {
						t.Fatalf("%s weighted=%v piece %d coef %d: %x, want %x", c.name, w != nil, i, j, got.Pieces[i].Coef[j], v)
					}
				}
			}
		}
	}
}

// TestPieceOfMatchesPieceIndex routes samples in every order, including
// exact breaks, infinities and NaN, the way PieceIndex does.
func TestPieceOfMatchesPieceIndex(t *testing.T) {
	breaks := []float64{-0.28, -0.03, 0.12}
	pw := Piecewise{Breaks: breaks}
	xs := []float64{-1, -0.28, -0.2, -0.03, 0, 0.12, 0.5, math.Inf(1), -0.28, math.NaN(), 0.12,
		math.Inf(-1), 0.05, math.NaN(), -0.5, 1e300, -0.03}
	pi := 0
	for _, x := range xs {
		pi = pieceOf(breaks, pi, x)
		if want := pw.PieceIndex(x); pi != want {
			t.Fatalf("x = %g: piece %d, PieceIndex %d", x, pi, want)
		}
	}
}

// TestFitPiecewiseLeavesOrders: a negative continuity order means 0 but
// is not written back to the caller's slice.
func TestFitPiecewiseLeavesOrders(t *testing.T) {
	xs, ys, _ := chargeSamples()
	c := fitCases()[0]
	orders := []int{-1, 0}
	got, err := FitPiecewiseWeighted(c.breaks, c.specs, xs, ys, nil, orders)
	if err != nil {
		t.Fatal(err)
	}
	if orders[0] != -1 || orders[1] != 0 {
		t.Fatalf("orders changed to %v", orders)
	}
	want, err := FitPiecewiseWeighted(c.breaks, c.specs, xs, ys, nil, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Pieces {
		for j, v := range want.Pieces[i].Coef {
			if got.Pieces[i].Coef[j] != v { //lint:allow floatcmp order -1 must fit exactly as order 0
				t.Fatalf("piece %d coef %d: order -1 gives %g, order 0 %g", i, j, got.Pieces[i].Coef[j], v)
			}
		}
	}
}

// TestFitPiecewiseRejectsBadWeights: a NaN or infinite weight, or a
// negative one on a sample that only a fixed piece covers, is an error,
// not NaN coefficients or silently ignored.
func TestFitPiecewiseRejectsBadWeights(t *testing.T) {
	xs, ys, weights := chargeSamples()
	c := fitCases()[0]
	for _, bad := range []struct {
		k int
		w float64
	}{{3, math.NaN()}, {5, math.Inf(1)}, {len(xs) - 2, -1}} {
		w := append([]float64(nil), weights...)
		w[bad.k] = bad.w
		if _, err := FitPiecewiseWeighted(c.breaks, c.specs, xs, ys, w, c.orders); err == nil {
			t.Errorf("weight %g at sample %d (x = %g) accepted", bad.w, bad.k, xs[bad.k])
		}
	}
}

// TestFitPiecewiseWorkspaceReuse fits a large KKT system, a small one,
// then both again: each fit runs on the pooled workspace the one
// before it left behind, and must give the bits it gave first. A
// workspace not cleared before the normal equations accumulate into it
// would carry the previous system's entries into the next.
func TestFitPiecewiseWorkspaceReuse(t *testing.T) {
	xs := units.Linspace(-1, 1, 400)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(3*x) + x*x
	}
	type system struct {
		breaks []float64
		specs  []PieceSpec
		orders []int
	}
	// 8 cubic pieces under C1: 32 unknowns and 14 constraints.
	large := system{breaks: units.Linspace(-0.75, 0.75, 7)}
	for range large.breaks {
		large.specs = append(large.specs, PieceSpec{Degree: 3})
		large.orders = append(large.orders, 1)
	}
	large.specs = append(large.specs, PieceSpec{Degree: 3})
	// Two lines under C0: 4 unknowns and 1 constraint.
	small := system{breaks: []float64{0.1}, specs: []PieceSpec{{Degree: 1}, {Degree: 1}}, orders: []int{0}}

	fit := func(s system) Piecewise {
		t.Helper()
		pw, err := FitPiecewiseWeighted(s.breaks, s.specs, xs, ys, nil, s.orders)
		if err != nil {
			t.Fatal(err)
		}
		return pw
	}
	same := func(name string, a, b Piecewise) {
		t.Helper()
		for i := range a.Pieces {
			if len(a.Pieces[i].Coef) != len(b.Pieces[i].Coef) {
				t.Fatalf("%s piece %d: %v, then %v", name, i, a.Pieces[i].Coef, b.Pieces[i].Coef)
			}
			for j, v := range a.Pieces[i].Coef {
				if math.Float64bits(b.Pieces[i].Coef[j]) != math.Float64bits(v) {
					t.Fatalf("%s piece %d coef %d: %x, then %x", name, i, j, v, b.Pieces[i].Coef[j])
				}
			}
		}
	}
	large1 := fit(large)
	small1 := fit(small)
	large2 := fit(large)
	small2 := fit(small)
	same("large", large1, large2)
	same("small", small1, small2)
}
