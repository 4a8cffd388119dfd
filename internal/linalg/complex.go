package linalg

import (
	"fmt"
	"math/cmplx"
)

// CMatrix is a dense row-major complex matrix, the workhorse of AC
// (small-signal phasor) analysis.
type CMatrix struct {
	rows, cols int
	data       []complex128
}

// NewCMatrix returns a zero complex matrix.
func NewCMatrix(rows, cols int) *CMatrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &CMatrix{rows: rows, cols: cols, data: make([]complex128, rows*cols)}
}

// At returns the element at (i, j).
func (m *CMatrix) At(i, j int) complex128 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Add accumulates into the element at (i, j).
func (m *CMatrix) Add(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *CMatrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Zero clears the matrix in place.
func (m *CMatrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// SolveCLU solves the complex system a*x = b by LU factorisation with
// partial pivoting (pivot by modulus). a is not modified.
func SolveCLU(a *CMatrix, b []complex128) ([]complex128, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("linalg: complex LU needs a square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	if len(b) != n {
		return nil, fmt.Errorf("linalg: rhs length %d, want %d", len(b), n)
	}
	lu := make([]complex128, len(a.data))
	copy(lu, a.data)
	piv := make([]int, n)
	for i := range piv {
		piv[i] = i
	}
	at := func(i, j int) complex128 { return lu[i*n+j] }
	set := func(i, j int, v complex128) { lu[i*n+j] = v }

	for k := 0; k < n; k++ {
		p, pmax := k, cmplx.Abs(at(k, k))
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(at(i, k)); a > pmax {
				p, pmax = i, a
			}
		}
		if pmax == 0 { //lint:allow floatcmp an exactly zero pivot column is singular
			return nil, ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				lu[p*n+j], lu[k*n+j] = lu[k*n+j], lu[p*n+j]
			}
			piv[p], piv[k] = piv[k], piv[p]
		}
		pivot := at(k, k)
		for i := k + 1; i < n; i++ {
			m := at(i, k) / pivot
			set(i, k, m)
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				set(i, j, at(i, j)-m*at(k, j))
			}
		}
	}
	// Permute, forward- and back-substitute.
	x := make([]complex128, n)
	for i := 0; i < n; i++ {
		x[i] = b[piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= at(i, j) * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= at(i, j) * x[j]
		}
		d := at(i, i)
		if d == 0 {
			return nil, ErrSingular
		}
		x[i] = s / d
	}
	return x, nil
}
