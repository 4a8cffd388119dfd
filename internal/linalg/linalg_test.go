package linalg

import (
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// fromRows builds a matrix from equal-length row slices.
func fromRows(rows [][]float64) *Matrix {
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		copy(m.data[i*m.cols:(i+1)*m.cols], r)
	}
	return m
}

// cmulVec returns a*x, the residual oracle of the complex solves.
func cmulVec(a *CMatrix, x []complex128) []complex128 {
	out := make([]complex128, a.rows)
	for i := range out {
		for j, v := range x {
			out[i] += a.At(i, j) * v
		}
	}
	return out
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(2, 3)
	m.Set(0, 0, 1)
	m.Set(1, 2, -4)
	m.Add(1, 2, 1)
	if m.At(0, 0) != 1 || m.At(1, 2) != -3 {
		t.Fatal("Set/Add/At broken")
	}
	if m.Rows() != 2 || m.Cols() != 3 {
		t.Fatal("shape broken")
	}
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone aliases data")
	}
	m.Zero()
	for _, v := range m.data {
		if v != 0 {
			t.Fatal("Zero did not clear")
		}
	}
}

func TestMatrixIndexPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, fn := range []func(){
		func() { m.At(2, 0) },
		func() { m.At(0, -1) },
		func() { m.Set(-1, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected out-of-range panic")
				}
			}()
			fn()
		}()
	}
}

func TestTransposeAndMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	at := a.T()
	if at.Rows() != 2 || at.Cols() != 3 || at.At(0, 2) != 5 {
		t.Fatal("transpose broken")
	}
	p := at.Mul(a) // 2x2 = A^T A
	want := fromRows([][]float64{{35, 44}, {44, 56}})
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if p.At(i, j) != want.At(i, j) {
				t.Fatalf("Mul[%d][%d] = %g, want %g", i, j, p.At(i, j), want.At(i, j))
			}
		}
	}
}

func TestMulVec(t *testing.T) {
	a := fromRows([][]float64{{2, 0, -1}, {1, 3, 2}})
	got := a.MulVec([]float64{1, 2, 3})
	if got[0] != -1 || got[1] != 13 {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestIdentityMul(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {3, 4}})
	if p := fromRows([][]float64{{1, 0}, {0, 1}}).Mul(a); p.At(0, 1) != 2 || p.At(1, 0) != 3 {
		t.Fatal("I*A != A")
	}
}

func TestLUSolveKnownSystem(t *testing.T) {
	a := fromRows([][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	})
	x, err := SolveLU(a, []float64{8, -11, -3})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if !almostEq(x[i], want[i], 1e-12) {
			t.Fatalf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestLUDeterminant(t *testing.T) {
	a := fromRows([][]float64{{4, 3}, {6, 3}})
	f, err := FactorLU(a)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(f.Det(), -6, 1e-12) {
		t.Fatalf("det = %g, want -6", f.Det())
	}
}

func TestLUSingular(t *testing.T) {
	a := fromRows([][]float64{{1, 2}, {2, 4}})
	if _, err := FactorLU(a); err == nil {
		t.Fatal("expected ErrSingular")
	}
}

func TestLUNonSquare(t *testing.T) {
	if _, err := FactorLU(NewMatrix(2, 3)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestLUNeedsPivoting(t *testing.T) {
	// Zero on the leading diagonal forces a row swap.
	a := fromRows([][]float64{{0, 1}, {1, 0}})
	x, err := SolveLU(a, []float64{3, 7})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(x[0], 7, 1e-14) || !almostEq(x[1], 3, 1e-14) {
		t.Fatalf("x = %v", x)
	}
}

// Property: for random well-conditioned systems, LU solve reproduces b.
func TestLUSolveResidualProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(8)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Add(i, i, float64(n)) // diagonal dominance keeps it nonsingular
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveLU(a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		r := a.MulVec(x)
		for i := range r {
			r[i] -= b[i]
		}
		if NormInf(r) > 1e-10 {
			t.Fatalf("trial %d: residual %g", trial, NormInf(r))
		}
	}
}

// TestSolveInPlaceMatchesSolveLU: the in-place entry point runs the
// same factorisation and substitution as SolveLU, so on random systems
// (pivoting on most steps, sizes past its stack scratch) it returns the
// same bits, and SolveLU leaves its inputs alone.
func TestSolveInPlaceMatchesSolveLU(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 12, 33, 40} {
		a := NewMatrix(n, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			b[i] = rng.NormFloat64()
		}
		a0, b0 := a.Clone(), append([]float64(nil), b...)
		want, err := SolveLU(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(a.data, a0.data) || !slices.Equal(b, b0) {
			t.Fatalf("n=%d: SolveLU modified its inputs", n)
		}
		if err := SolveInPlace(n, a.data, b); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Float64bits(b[i]) != math.Float64bits(want[i]) {
				t.Fatalf("n=%d: x[%d] = %x in place, %x from SolveLU", n, i, b[i], want[i])
			}
		}
	}
	if err := SolveInPlace(2, []float64{1, 2, 2, 4}, []float64{1, 1}); err != ErrSingular {
		t.Fatalf("singular system: err = %v", err)
	}
	if err := SolveInPlace(2, []float64{1, 0, 0}, []float64{1, 1}); err == nil {
		t.Fatal("short matrix accepted")
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot broken")
	}
	if !almostEq(Norm2([]float64{3, 4}), 5, 1e-14) {
		t.Fatal("Norm2 broken")
	}
	if NormInf([]float64{-7, 2}) != 7 {
		t.Fatal("NormInf broken")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{1, -1}, y)
	if y[0] != 3 || y[1] != -1 {
		t.Fatal("AXPY broken")
	}
}

func TestNorm2OverflowSafe(t *testing.T) {
	big := math.MaxFloat64 / 2
	n := Norm2([]float64{big, big})
	if math.IsInf(n, 0) || math.IsNaN(n) {
		t.Fatalf("Norm2 overflowed: %g", n)
	}
	if !almostEq(n/big, math.Sqrt2, 1e-12) {
		t.Fatalf("Norm2 wrong: %g", n)
	}
}

func TestCondEstimateIdentityIsSmall(t *testing.T) {
	id := NewMatrix(5, 5)
	for i := 0; i < 5; i++ {
		id.Set(i, i, 1)
	}
	if c := CondEstimate(id); c < 1 || c > 10 {
		t.Fatalf("cond(I) estimate = %g", c)
	}
}

func TestCondEstimateSingularIsInf(t *testing.T) {
	a := fromRows([][]float64{{1, 1}, {1, 1}})
	if c := CondEstimate(a); !math.IsInf(c, 1) {
		t.Fatalf("cond(singular) = %g, want +Inf", c)
	}
}

// Property: Dot is symmetric and bilinear in its first argument.
func TestDotProperties(t *testing.T) {
	f := func(raw []float64, k float64) bool {
		if len(raw) < 2 || len(raw)%2 != 0 {
			return true
		}
		for _, v := range raw {
			if math.IsNaN(v) || math.Abs(v) > 1e100 {
				return true
			}
		}
		if math.IsNaN(k) || math.Abs(k) > 1e100 {
			return true
		}
		n := len(raw) / 2
		a, b := raw[:n], raw[n:]
		if Dot(a, b) != Dot(b, a) {
			return false
		}
		ka := make([]float64, n)
		for i := range a {
			ka[i] = k * a[i]
		}
		return almostEq(Dot(ka, b), k*Dot(a, b), 1e-6*(1+math.Abs(k*Dot(a, b))))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestComplexMatrixBasics(t *testing.T) {
	m := NewCMatrix(2, 2)
	m.Add(0, 0, 1+2i)
	m.Add(0, 0, 1)
	if m.At(0, 0) != 2+2i {
		t.Fatal("Add/At broken")
	}
	if m.rows != 2 || m.cols != 2 {
		t.Fatal("shape")
	}
	m.Zero()
	if m.At(0, 0) != 0 {
		t.Fatal("Zero")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.At(5, 5)
}

func TestSolveCLUKnownSystem(t *testing.T) {
	// (1+i)x + 2y = 3+i ; 4x + (1-i)y = 5: solve and verify residual.
	a := NewCMatrix(2, 2)
	a.Add(0, 0, 1+1i)
	a.Add(0, 1, 2)
	a.Add(1, 0, 4)
	a.Add(1, 1, 1-1i)
	b := []complex128{3 + 1i, 5}
	x, err := SolveCLU(a, b)
	if err != nil {
		t.Fatal(err)
	}
	r := cmulVec(a, x)
	for i := range r {
		if cmplx.Abs(r[i]-b[i]) > 1e-12 {
			t.Fatalf("residual %v", r[i]-b[i])
		}
	}
}

func TestSolveCLUNeedsPivot(t *testing.T) {
	a := NewCMatrix(2, 2)
	a.Add(0, 1, 1i)
	a.Add(1, 0, 2)
	x, err := SolveCLU(a, []complex128{3i, 4})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-2) > 1e-14 || cmplx.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("x = %v", x)
	}
}

func TestSolveCLUErrors(t *testing.T) {
	if _, err := SolveCLU(NewCMatrix(2, 3), make([]complex128, 2)); err == nil {
		t.Fatal("non-square accepted")
	}
	if _, err := SolveCLU(NewCMatrix(2, 2), make([]complex128, 1)); err == nil {
		t.Fatal("bad rhs accepted")
	}
	sing := NewCMatrix(2, 2)
	sing.Add(0, 0, 1)
	sing.Add(0, 1, 1)
	sing.Add(1, 0, 1)
	sing.Add(1, 1, 1)
	if _, err := SolveCLU(sing, make([]complex128, 2)); err == nil {
		t.Fatal("singular accepted")
	}
}

func TestSolveCLURandomResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		a := NewCMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Add(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
			}
			a.Add(i, i, complex(float64(2*n), 0))
		}
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x, err := SolveCLU(a, b)
		if err != nil {
			t.Fatal(err)
		}
		r := cmulVec(a, x)
		for i := range r {
			if cmplx.Abs(r[i]-b[i]) > 1e-10 {
				t.Fatalf("trial %d: residual %g", trial, cmplx.Abs(r[i]-b[i]))
			}
		}
	}
}
