package rootfind

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// fn adapts a function and its derivative to Newton's evaluator.
func fn(f, df func(float64) float64) func(float64, bool) (float64, float64, bool) {
	return func(x float64, deriv bool) (float64, float64, bool) {
		if !deriv {
			return f(x), 0, true
		}
		return f(x), df(x), true
	}
}

func TestNewtonQuadraticConvergence(t *testing.T) {
	r, err := Newton(fn(func(x float64) float64 { return math.Exp(x) - 3 }, math.Exp), 0.5, 1.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Root-math.Log(3)) > 1e-10 {
		t.Fatalf("root = %g", r.Root)
	}
	if r.Iterations > 12 {
		t.Fatalf("Newton took %d iterations", r.Iterations)
	}
}

func TestNewtonSafeguardsAgainstZeroDerivative(t *testing.T) {
	// f = x^3 has f'(0) = 0; start at the stationary point.
	f := func(x float64) float64 { return x * x * x }
	df := func(x float64) float64 { return 3 * x * x }
	r, err := Newton(fn(f, df), 0, 1.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Root) > 1e-6 {
		t.Fatalf("root = %g", r.Root)
	}
}

func TestNewtonWildDerivativeFallsBackToBisection(t *testing.T) {
	// Steep tanh: naive Newton from the flat region diverges; the
	// bracket safeguard must still land the root.
	k := 500.0
	f := func(x float64) float64 { return math.Tanh(k * (x - 0.3)) }
	df := func(x float64) float64 {
		c := math.Cosh(k * (x - 0.3))
		return k / (c * c)
	}
	r, err := Newton(fn(f, df), -5, 6, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Root-0.3) > 1e-8 {
		t.Fatalf("root = %g", r.Root)
	}
}

// TestExpandBracket: a root far outside the starting bracket is
// reached by growing it, and each growth counts two evaluations.
func TestExpandBracket(t *testing.T) {
	f := func(x float64) float64 { return x - 100 }
	r, err := Newton(fn(f, func(float64) float64 { return 1 }), 0, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Root-100) > 1e-9 {
		t.Fatalf("root = %g", r.Root)
	}
	// Each growth triples the width: [-0.5, 0.5] reaches past 100
	// after 5 (half-width 121.5).
	if want := 2 + 2*5 + r.Iterations; r.FuncEvals != want {
		t.Fatalf("FuncEvals = %d, want %d", r.FuncEvals, want)
	}
}

func TestNewtonBadBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	df := func(x float64) float64 { return 2 * x }
	if _, err := Newton(fn(f, df), 0, 1, Options{}); !errors.Is(err, ErrBadBracket) {
		t.Fatalf("err = %v", err)
	}
}

// TestExpandBracketFailure: the growth stops after MaxGrow attempts,
// having evaluated both ends of every bracket it tried.
func TestExpandBracketFailure(t *testing.T) {
	calls := 0
	eval := func(x float64, deriv bool) (float64, float64, bool) {
		calls++
		return 1 + x*x, 2 * x, true
	}
	r, err := Newton(eval, 0, 1, Options{MaxGrow: 5})
	if !errors.Is(err, ErrBadBracket) {
		t.Fatalf("err = %v", err)
	}
	if calls != 2*6 || r.FuncEvals != calls {
		t.Fatalf("%d evaluations (FuncEvals %d), want 12", calls, r.FuncEvals)
	}
}

// TestNewtonKeepsConvergedIterate: an iterate whose residual is tiny
// and of the bracket's low-end sign becomes that end, and its Newton
// step rounds back onto it. The step is below XTol, so the iterate is
// the root; it must not be discarded for a bisection of the far side.
func TestNewtonKeepsConvergedIterate(t *testing.T) {
	// The residual at 0.3 is -1e-20 and the root rounds to 0.3.
	f := func(x float64) float64 { return (x - 0.3) - 1e-20 }
	r, err := Newton(fn(f, func(float64) float64 { return 1 }), 0.3, 0.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Root != 0.3 || r.Iterations != 1 {
		t.Fatalf("root %.17g after %d iterations, want 0.3 after 1", r.Root, r.Iterations)
	}
}

// TestNewtonRefusedPoint: a point the evaluator refuses, in the bracket
// search or in an iteration, ends the solve with ErrRefused.
func TestNewtonRefusedPoint(t *testing.T) {
	for _, inIteration := range []bool{false, true} {
		calls := 0
		eval := func(x float64, deriv bool) (float64, float64, bool) {
			calls++
			return x - 0.1, 1, deriv != inIteration
		}
		if _, err := Newton(eval, 0, 0.5, Options{}); !errors.Is(err, ErrRefused) {
			t.Fatalf("inIteration=%v: err = %v", inIteration, err)
		}
		// Refused at the first bracket end, or at the first iterate.
		if want := map[bool]int{false: 1, true: 3}[inIteration]; calls != want {
			t.Fatalf("inIteration=%v: %d evaluations, want %d", inIteration, calls, want)
		}
	}
}

// TestNewtonExactRootAtBracketEnd: a residual exactly zero at either
// bracket end is the root, with no iteration.
func TestNewtonExactRootAtBracketEnd(t *testing.T) {
	f := func(x float64) float64 { return x }
	for _, x0 := range []float64{0.5, -0.5} {
		r, err := Newton(fn(f, func(float64) float64 { return 1 }), x0, 0.5, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Root != 0 || r.Iterations != 0 {
			t.Fatalf("x0 %g: root %g after %d iterations, want 0 after 0", x0, r.Root, r.Iterations)
		}
	}
}

// TestNewtonOnIter: the observer sees every iteration in order, with the
// residual at the iterate.
func TestNewtonOnIter(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(x) - 3 }
	seen := 0
	opt := Options{OnIter: func(iter int, x, fx float64) {
		seen++
		if iter != seen || fx != f(x) {
			t.Fatalf("OnIter(%d, %g, %g) at call %d", iter, x, fx, seen)
		}
	}}
	r, err := Newton(fn(f, math.Exp), 0.5, 1.5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if seen != r.Iterations {
		t.Fatalf("OnIter saw %d iterations, Result reports %d", seen, r.Iterations)
	}
}

func TestNewtonMaxIter(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(x) - 3 }
	if _, err := Newton(fn(f, math.Exp), -10, 20, Options{MaxIter: 2}); !errors.Is(err, ErrMaxIter) {
		t.Fatalf("err = %v", err)
	}
}

func TestNewtonAgainstKnownRoots(t *testing.T) {
	cases := []struct {
		f, df    func(float64) float64
		x0, half float64
		rt       float64
	}{
		{func(x float64) float64 { return x*x - 2 }, func(x float64) float64 { return 2 * x }, 1, 1, math.Sqrt2},
		{func(x float64) float64 { return x*x*x - 2*x - 5 }, func(x float64) float64 { return 3*x*x - 2 }, 2.5, 0.5, 2.0945514815423265},
		{func(x float64) float64 { return math.Cos(x) - x }, func(x float64) float64 { return -math.Sin(x) - 1 }, 0.5, 0.5, 0.7390851332151607},
		{func(x float64) float64 { return math.Exp(-x) - x }, func(x float64) float64 { return -math.Exp(-x) - 1 }, 0.5, 0.5, 0.5671432904097838},
	}
	for i, c := range cases {
		r, err := Newton(fn(c.f, c.df), c.x0, c.half, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Abs(r.Root-c.rt) > 1e-12 {
			t.Fatalf("case %d: root = %.17g want %.17g", i, r.Root, c.rt)
		}
	}
}

// bracketOnly adapts f to Newton's evaluator with a zero derivative, so
// every step is the bisection fallback: a derivative-free bracketed
// solve. The Bisect and Brent tests below are named for the bracketed
// solvers these cases were first written for.
func bracketOnly(f func(float64) float64) func(float64, bool) (float64, float64, bool) {
	return func(x float64, _ bool) (float64, float64, bool) { return f(x), 0, true }
}

func TestBisectSimple(t *testing.T) {
	f := func(x float64) float64 { return x*x - 2 }
	r, err := Newton(bracketOnly(f), 1, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r.Root-math.Sqrt2) > 1e-10 {
		t.Fatalf("root = %.15g", r.Root)
	}
	// Pure bisection of [0, 2] down to a 1e-12 step: ~41 halvings.
	if r.Iterations < 35 || r.Iterations > 45 {
		t.Fatalf("bisection took %d iterations", r.Iterations)
	}
}

func TestBisectBadBracket(t *testing.T) {
	f := func(x float64) float64 { return x*x + 1 }
	if _, err := Newton(bracketOnly(f), 0, 1, Options{}); !errors.Is(err, ErrBadBracket) {
		t.Fatalf("err = %v", err)
	}
}

func TestBrentAgainstKnownRoots(t *testing.T) {
	cases := []struct {
		f        func(float64) float64
		a, b, rt float64
	}{
		{func(x float64) float64 { return x*x*x - 2*x - 5 }, 2, 3, 2.0945514815423265},
		{func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 0.7390851332151607},
		{func(x float64) float64 { return math.Exp(-x) - x }, 0, 1, 0.5671432904097838},
	}
	for i, c := range cases {
		r, err := Newton(bracketOnly(c.f), (c.a+c.b)/2, (c.b-c.a)/2, Options{})
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Abs(r.Root-c.rt) > 1e-9 {
			t.Fatalf("case %d: root = %.15g want %.15g", i, r.Root, c.rt)
		}
		// The bracket already holds the root: no growth.
		if r.FuncEvals != 2+r.Iterations {
			t.Fatalf("case %d: FuncEvals = %d after %d iterations", i, r.FuncEvals, r.Iterations)
		}
	}
}

func TestBrentBadBracket(t *testing.T) {
	r, err := Newton(bracketOnly(func(x float64) float64 { return 1 + x*x }), 0, 1, Options{MaxGrow: 3})
	if !errors.Is(err, ErrBadBracket) {
		t.Fatalf("err = %v", err)
	}
	if r.Iterations != 0 || r.FuncEvals != 2*4 {
		t.Fatalf("rootless: %+v; want no iteration and 8 evaluations", r)
	}
}

// Property: on random monotone cubics a·x³ + a·x + c, Newton agrees
// with Cardano's closed-form root.
func TestSolversAgreeProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		a := 0.2 + rng.Float64()*3
		c := rng.NormFloat64() * 3
		f := func(x float64) float64 { return a*x*x*x + a*x + c } // monotone: 3a x² + a > 0
		df := func(x float64) float64 { return 3*a*x*x + a }
		r, err := Newton(fn(f, df), 0, 1, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// x³ + p·x + q = 0 with p = 1 > 0 has one real root.
		q := c / a
		d := math.Sqrt(q*q/4 + 1.0/27)
		want := math.Cbrt(-q/2+d) + math.Cbrt(-q/2-d)
		if math.Abs(r.Root-want) > 1e-9 {
			t.Fatalf("trial %d: Newton %.17g, Cardano %.17g", trial, r.Root, want)
		}
	}
}

// TestOptionsFillDefaults: zero options select XTol 1e-12, 100
// iterations and 40 bracket growths.
func TestOptionsFillDefaults(t *testing.T) {
	f := func(x float64) float64 { return math.Exp(x) - 3 }
	got, err := Newton(fn(f, math.Exp), 0.5, 1.5, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := Newton(fn(f, math.Exp), 0.5, 1.5, Options{XTol: 1e-12, MaxIter: 100, MaxGrow: 40})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("zero options %+v, explicit defaults %+v", got, want)
	}
	// A rootless function exhausts exactly 40 growths.
	r, err := Newton(fn(func(x float64) float64 { return 1 + x*x }, math.Exp), 0, 1, Options{})
	if !errors.Is(err, ErrBadBracket) || r.FuncEvals != 2*41 {
		t.Fatalf("rootless: %+v, %v; want 82 evaluations and ErrBadBracket", r, err)
	}
}
