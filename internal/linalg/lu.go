package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorisation meets an (effectively)
// singular matrix.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// LU holds an LU factorisation with partial pivoting: P*A = L*U.
// The factors are stored compactly in a single matrix (unit lower
// triangle implicit).
type LU struct {
	lu    *Matrix
	swaps []int // step k exchanged rows k and swaps[k]
	sign  int   // +1/-1, parity of the permutation, for Det
}

// FactorLU computes the LU factorisation of a square matrix a using
// partial (row) pivoting. The input matrix is not modified.
func FactorLU(a *Matrix) (*LU, error) {
	if a.Rows() != a.Cols() {
		return nil, fmt.Errorf("linalg: LU needs a square matrix, got %dx%d", a.Rows(), a.Cols())
	}
	f := &LU{lu: a.Clone(), swaps: make([]int, a.Rows())}
	sign, err := factor(f.lu.data, f.lu.rows, f.swaps)
	if err != nil {
		return nil, err
	}
	f.sign = sign
	return f, nil
}

// factor overwrites the n×n row-major matrix a with its LU factors
// (unit lower triangle implicit), pivoting on the largest magnitude in
// each column. swaps[k] receives the row exchanged with row k at step
// k; the result is the permutation's parity.
func factor(a []float64, n int, swaps []int) (int, error) {
	sign := 1
	for k := 0; k < n; k++ {
		rk := a[k*n : (k+1)*n]
		// Find the pivot row.
		p, pmax := k, math.Abs(rk[k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > pmax {
				p, pmax = i, v
			}
		}
		if pmax == 0 { //lint:allow floatcmp an exactly zero pivot column is singular
			return 0, ErrSingular
		}
		swaps[k] = p
		if p != k {
			rp := a[p*n : (p+1)*n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			sign = -sign
		}
		pivot := rk[k]
		for i := k + 1; i < n; i++ {
			ri := a[i*n : (i+1)*n]
			m := ri[k] / pivot
			ri[k] = m
			if m == 0 { //lint:allow floatcmp exact zeros need no elimination
				continue
			}
			for j := k + 1; j < n; j++ {
				ri[j] += -m * rk[j]
			}
		}
	}
	return sign, nil
}

// substitute solves L*U*x = P*b in place on x, which holds b on entry,
// given factor's output lu and swaps.
func substitute(lu []float64, n int, swaps []int, x []float64) error {
	// Apply the row exchanges in factorisation order.
	for k, p := range swaps {
		x[k], x[p] = x[p], x[k]
	}
	// Forward substitution (unit lower).
	for i := 1; i < n; i++ {
		row := lu[i*n : i*n+i]
		s := x[i]
		for j, l := range row {
			s -= l * x[j]
		}
		x[i] = s
	}
	// Backward substitution.
	for i := n - 1; i >= 0; i-- {
		row := lu[i*n : (i+1)*n]
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= row[j] * x[j]
		}
		d := row[i]
		if d == 0 { //lint:allow floatcmp an exactly zero diagonal is singular
			return ErrSingular
		}
		x[i] = s / d
	}
	return nil
}

// Solve solves A*x = b for one right-hand side.
func (f *LU) Solve(b []float64) ([]float64, error) {
	n := f.lu.Rows()
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	x := make([]float64, n)
	copy(x, b)
	if err := substitute(f.lu.data, n, f.swaps, x); err != nil {
		return nil, err
	}
	return x, nil
}

// Det returns the determinant of the factored matrix.
func (f *LU) Det() float64 {
	d := float64(f.sign)
	for i := 0; i < f.lu.Rows(); i++ {
		d *= f.lu.At(i, i)
	}
	return d
}

// SolveLU factors a and solves a*x = b in one call. Use FactorLU
// directly when solving for many right-hand sides.
func SolveLU(a *Matrix, b []float64) ([]float64, error) {
	f, err := FactorLU(a)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// SolveInPlace solves the n×n row-major system a*x = b with the same
// factorisation and substitution as SolveLU, so it returns the same
// bits, but without SolveLU's copies: a is overwritten with its LU
// factors and b with x. It suits callers that assemble a throwaway
// system into scratch of their own.
func SolveInPlace(n int, a, b []float64) error {
	if len(a) != n*n || len(b) != n {
		return fmt.Errorf("linalg: %d-element matrix and %d-element rhs for n = %d", len(a), len(b), n)
	}
	var buf [32]int
	swaps := buf[:]
	if n > len(buf) {
		swaps = make([]int, n)
	}
	swaps = swaps[:n]
	if _, err := factor(a, n, swaps); err != nil {
		return err
	}
	return substitute(a, n, swaps, b)
}

// CondEstimate returns a cheap lower-bound estimate of the infinity-norm
// condition number of a, using ||A||_inf multiplied by the norm of the
// solution of A x = e for a few probing vectors. It is only used to warn
// about badly scaled fitting problems, not for rigorous analysis.
func CondEstimate(a *Matrix) float64 {
	f, err := FactorLU(a)
	if err != nil {
		return math.Inf(1)
	}
	n := a.Rows()
	normA := 0.0
	for i := 0; i < n; i++ {
		s := 0.0
		for j := 0; j < n; j++ {
			s += math.Abs(a.At(i, j))
		}
		if s > normA {
			normA = s
		}
	}
	best := 0.0
	probe := make([]float64, n)
	for trial := 0; trial < 3; trial++ {
		for i := range probe {
			switch trial {
			case 0:
				probe[i] = 1
			case 1:
				if i%2 == 0 {
					probe[i] = 1
				} else {
					probe[i] = -1
				}
			default:
				probe[i] = 1 / float64(i+1)
			}
		}
		x, err := f.Solve(probe)
		if err != nil {
			return math.Inf(1)
		}
		if nx := NormInf(x) / NormInf(probe); nx > best {
			best = nx
		}
	}
	return normA * best
}
