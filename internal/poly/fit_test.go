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

// TestNormalEquationsMatchDesignMatrix pins the row-by-row accumulation
// bit for bit against A.T().Mul(A) and A.T().MulVec(y) on the charge
// models' region structures, weighted and unweighted. The samples
// include x = 0 and a zero-weight sample, which exercise the exact-zero
// skip.
func TestNormalEquationsMatchDesignMatrix(t *testing.T) {
	zero := Poly{}
	cases := []struct {
		name   string
		breaks []float64
		specs  []PieceSpec
		orders []int
	}{
		{"model1", []float64{-0.08, 0.08}, []PieceSpec{{Degree: 1}, {Degree: 2}, {Fixed: &zero}}, []int{1, 0}},
		{"model2", []float64{-0.28, -0.03, 0.12}, []PieceSpec{{Degree: 1}, {Degree: 2}, {Degree: 3}, {Fixed: &zero}}, []int{1, 1, 0}},
		{"tail-C1", []float64{-0.08, 0.08}, []PieceSpec{{Degree: 1}, {Degree: 2}, {Fixed: &zero}}, []int{1, 1}},
	}
	// A charge-like curve: softplus of -u at a 26 meV width, in C/m.
	xs := append(units.Linspace(-0.65, 0.35, 240), 0)
	ys := make([]float64, len(xs))
	ymax := 0.0
	for i, x := range xs {
		ys[i] = 1e-10 * 0.026 * math.Log1p(math.Exp(-x/0.026))
		ymax = math.Max(ymax, ys[i])
	}
	weights := make([]float64, len(xs))
	for i, y := range ys {
		d := y + 0.05*ymax
		weights[i] = 1 / (d * d)
	}
	weights[17] = 0

	for _, c := range cases {
		for _, w := range [][]float64{nil, weights} {
			offset := make([]int, len(c.specs))
			nUnknown := 0
			for i, s := range c.specs {
				offset[i] = nUnknown
				if s.Fixed == nil {
					nUnknown += s.Degree + 1
				}
			}
			pw := Piecewise{Breaks: c.breaks}
			a, y := designMatrix(pw, c.specs, offset, nUnknown, xs, ys, w)
			ata, aty := a.T().Mul(a), a.T().MulVec(y)

			kkt := linalg.NewMatrix(nUnknown, nUnknown)
			rhs := make([]float64, nUnknown)
			if err := normalEquations(kkt, rhs, pw, c.specs, offset, xs, ys, w); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < nUnknown; i++ {
				if math.Float64bits(rhs[i]) != math.Float64bits(aty[i]) {
					t.Fatalf("%s weighted=%v: Aᵀy[%d] = %x, want %x", c.name, w != nil, i, rhs[i], aty[i])
				}
				for j := 0; j < nUnknown; j++ {
					if math.Float64bits(kkt.At(i, j)) != math.Float64bits(ata.At(i, j)) {
						t.Fatalf("%s weighted=%v: AᵀA[%d][%d] = %x, want %x", c.name, w != nil, i, j, kkt.At(i, j), ata.At(i, j))
					}
				}
			}
			if _, err := FitPiecewiseWeighted(c.breaks, c.specs, xs, ys, w, c.orders); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
	}
}
