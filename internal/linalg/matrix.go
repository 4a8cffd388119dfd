// Package linalg provides the dense linear algebra needed by the rest of
// the library: LU factorisation with partial pivoting, real (circuit
// MNA solves and the constrained charge fit's KKT system) and complex
// (AC analysis), and the matrix plumbing they share.
//
// The package is deliberately small — it implements exactly the
// operations the device models and the circuit simulator require, with
// conventional dense storage (row-major) and no external dependencies.
package linalg

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix.
type Matrix struct {
	rows, cols int
	data       []float64
}

// NewMatrix returns a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{rows: rows, cols: cols, data: make([]float64, rows*cols)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add increments the element at row i, column j by v. MNA stamping is a
// long sequence of such accumulations, so it gets its own method.
func (m *Matrix) Add(i, j int, v float64) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("linalg: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.rows, m.cols)
	copy(c.data, m.data)
	return c
}

// Zero resets every element to zero, keeping the allocation.
func (m *Matrix) Zero() {
	for i := range m.data {
		m.data[i] = 0
	}
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			t.data[j*t.cols+i] = m.data[i*m.cols+j]
		}
	}
	return t
}

// Mul returns the matrix product m*b.
func (m *Matrix) Mul(b *Matrix) *Matrix {
	if m.cols != b.rows {
		panic(fmt.Sprintf("linalg: dimension mismatch %dx%d * %dx%d", m.rows, m.cols, b.rows, b.cols))
	}
	out := NewMatrix(m.rows, b.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 { //lint:allow floatcmp exact zeros contribute nothing to the product
				continue
			}
			row := b.data[k*b.cols : (k+1)*b.cols]
			outRow := out.data[i*out.cols : (i+1)*out.cols]
			for j, bv := range row {
				outRow[j] += a * bv
			}
		}
	}
	return out
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []float64) []float64 {
	if m.cols != len(x) {
		panic("linalg: MulVec dimension mismatch")
	}
	out := make([]float64, m.rows)
	for i := 0; i < m.rows; i++ {
		s := 0.0
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			fmt.Fprintf(&b, "% .6g\t", m.At(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v, guarding against overflow for
// large components.
func Norm2(v []float64) float64 {
	scale, ssq := 0.0, 1.0
	for _, x := range v {
		if x == 0 { //lint:allow floatcmp exact zeros contribute nothing to the norm
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale * math.Sqrt(ssq)
}

// NormInf returns the max-abs norm of v.
func NormInf(v []float64) float64 {
	mx := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

// AXPY computes y += a*x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i := range x {
		y[i] += a * x[i]
	}
}
