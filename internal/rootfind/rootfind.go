// Package rootfind provides the scalar root finder of the reference
// CNT model: bracket-growing, bisection-safeguarded Newton–Raphson, the
// solver the paper's technique eliminates.
package rootfind

import (
	"errors"
	"fmt"
	"math"
)

// ErrMaxIter is returned when the iteration budget runs out.
var ErrMaxIter = errors.New("rootfind: iteration limit reached")

// ErrBadBracket is returned when no sign change is found.
var ErrBadBracket = errors.New("rootfind: interval does not bracket a root")

// ErrRefused is returned when the evaluator refuses a point, such as a
// table lookup off its grid.
var ErrRefused = errors.New("rootfind: evaluator refused a point")

// Options configures Newton. Zero fields select the defaults.
type Options struct {
	// XTol is the absolute step-size convergence threshold (default
	// 1e-12).
	XTol float64
	// MaxIter bounds the Newton iteration count (default 100).
	MaxIter int
	// MaxGrow bounds the bracket growths (default 40).
	MaxGrow int
	// OnIter, when non-nil, observes each Newton iteration after the
	// residual evaluation: iteration number (1-based), current iterate
	// and residual. Used by telemetry tracing; leave nil on hot paths.
	OnIter func(iter int, x, fx float64)
}

// Result carries a root and solver diagnostics.
type Result struct {
	Root       float64
	Iterations int
	// FuncEvals counts residual evaluations: the bracket ends, every
	// bracket growth, and one per iteration.
	FuncEvals int
}

// Newton finds a root of the function eval describes. eval returns the
// residual at x and, when deriv is set, its derivative; ok=false
// refuses x. The bracket starts at [x0-half, x0+half] (half > 0) and
// triples in width around its centre, at most MaxGrow times, until the
// residual changes sign. Newton then starts from x0; steps that leave
// the bracket, or meet a vanishing derivative, fall back to bisection
// of the bracket, which shrinks with each evaluated sign. It stops
// when a step is below XTol or a residual is exactly zero.
func Newton(eval func(x float64, deriv bool) (f, df float64, ok bool), x0, half float64, opt Options) (Result, error) {
	if opt.XTol == 0 { //lint:allow floatcmp exactly zero selects the default tolerance
		opt.XTol = 1e-12
	}
	if opt.MaxIter == 0 {
		opt.MaxIter = 100
	}
	if opt.MaxGrow == 0 {
		opt.MaxGrow = 40
	}
	res := Result{}
	lo, hi := x0-half, x0+half
	var flo, fhi float64
	for grow := 0; ; grow++ {
		var ok bool
		if flo, _, ok = eval(lo, false); !ok {
			return res, ErrRefused
		}
		if fhi, _, ok = eval(hi, false); !ok {
			return res, ErrRefused
		}
		res.FuncEvals += 2
		if flo == 0 || fhi == 0 || flo*fhi < 0 { //lint:allow floatcmp an exact root at a bracket end is a valid bracket
			break
		}
		if grow == opt.MaxGrow {
			return res, fmt.Errorf("rootfind: %w after %d expansions", ErrBadBracket, opt.MaxGrow)
		}
		w := hi - lo
		lo -= w
		hi += w
	}
	if flo == 0 { //lint:allow floatcmp residual exactly zero is an exact root
		res.Root = lo
		return res, nil
	}
	if fhi == 0 { //lint:allow floatcmp residual exactly zero is an exact root
		res.Root = hi
		return res, nil
	}
	x := x0 // the bracket grows around x0, so it holds x0
	for i := 1; i <= opt.MaxIter; i++ {
		res.Iterations = i
		fx, dfx, ok := eval(x, true)
		if !ok {
			return res, ErrRefused
		}
		res.FuncEvals++
		if opt.OnIter != nil {
			opt.OnIter(i, x, fx)
		}
		if fx == 0 { //lint:allow floatcmp residual exactly zero is an exact root
			res.Root = x
			return res, nil
		}
		// Maintain the bracket, then take the Newton step with a
		// bisection safeguard.
		if flo*fx < 0 {
			hi = x
		} else {
			lo, flo = x, fx
		}
		next := 0.5 * (lo + hi)
		if dfx != 0 { //lint:allow floatcmp exact-zero derivative guard before dividing
			n := x - fx/dfx
			// A step below XTol has converged, even one that rounds
			// back onto the bracket end x just became.
			if math.Abs(n-x) < opt.XTol {
				res.Root = n
				return res, nil
			}
			if n > lo && n < hi {
				next = n
			}
		}
		if math.Abs(next-x) < opt.XTol {
			res.Root = next
			return res, nil
		}
		x = next
	}
	res.Root = x
	return res, ErrMaxIter
}
