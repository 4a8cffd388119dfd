package circuit

import (
	"errors"
	"fmt"
	"math"

	"cntfet/internal/linalg"
	"cntfet/internal/telemetry"
)

// ErrNoConvergence is returned when Newton iteration fails even with
// gmin stepping.
var ErrNoConvergence = errors.New("circuit: DC analysis did not converge")

// DCOptions tunes the operating-point solver.
type DCOptions struct {
	// MaxIter bounds Newton iterations per gmin step (default 100).
	MaxIter int
	// VTol is the node-voltage convergence tolerance (default 1e-9).
	VTol float64
	// MaxStep clamps the per-iteration voltage update (default 0.5 V),
	// the classic damping that keeps exponential devices in range.
	MaxStep float64
	// GminSteps is the number of decades of gmin stepping tried before
	// giving up (default 8, from 1e-4 down).
	GminSteps int
}

func (o *DCOptions) fill() {
	if o.MaxIter == 0 {
		o.MaxIter = 100
	}
	if o.VTol == 0 { //lint:allow floatcmp zero VTol selects the default
		o.VTol = 1e-9
	}
	if o.MaxStep == 0 { //lint:allow floatcmp zero MaxStep selects the default
		o.MaxStep = 0.5
	}
	if o.GminSteps == 0 {
		o.GminSteps = 8
	}
}

// OperatingPoint solves the DC operating point of the circuit.
func (c *Circuit) OperatingPoint(opt DCOptions) (*Solution, error) {
	opt.fill()
	ix := c.buildIndex()
	if ix.n == 0 {
		return &Solution{ix: ix}, nil
	}
	st := newStamper(ix)
	x := make([]float64, ix.n)

	// Plain Newton first; on failure, walk gmin from large to small,
	// reusing each converged solution as the next start.
	if err := c.newton(st, x, 0, opt); err == nil {
		return &Solution{ix: ix, x: x}, nil
	}
	for i := range x {
		x[i] = 0
	}
	gmin := 1e-4
	for step := 0; step < opt.GminSteps; step++ {
		if telemetry.On() {
			metrics.dcGminSteps.Inc()
		}
		if err := c.newton(st, x, gmin, opt); err != nil {
			return nil, err
		}
		gmin /= 100
	}
	if err := c.newton(st, x, 0, opt); err != nil {
		return nil, err
	}
	return &Solution{ix: ix, x: x}, nil
}

// newton runs damped Newton iteration in place on x. On failure it
// returns a *ConvergenceError carrying the iteration count, the last
// update norm and the worst unknown's name.
func (c *Circuit) newton(st *Stamper, x []float64, gmin float64, opt DCOptions) error {
	on := telemetry.On()
	if on {
		metrics.dcSolves.Inc()
	}
	worst, worstIx := 0.0, 0
	for iter := 0; iter < opt.MaxIter; iter++ {
		st.reset(x)
		st.Gmin = gmin
		for _, e := range c.elems {
			e.Stamp(st)
		}
		xNew, err := linalg.SolveLU(st.a, st.rhs)
		if on {
			metrics.luSolves.Inc()
			metrics.dcNewtonIters.Inc()
		}
		if err != nil {
			return fmt.Errorf("circuit: singular MNA matrix: %w", err)
		}
		// Damp and measure the update.
		worst, worstIx = 0.0, 0
		for i := range x {
			d := xNew[i] - x[i]
			if math.Abs(d) > opt.MaxStep {
				d = math.Copysign(opt.MaxStep, d)
			}
			x[i] += d
			if a := math.Abs(d); a > worst {
				worst, worstIx = a, i
			}
		}
		if worst < opt.VTol {
			if on {
				metrics.newtonIterHist.Observe(float64(iter + 1))
			}
			if c.trace.Enabled() {
				c.trace.Emit(telemetry.KindCircuitDCSolve, telemetry.Float(telemetry.AttrT, st.Time),
					telemetry.Int(telemetry.AttrIters, int64(iter+1)),
					telemetry.Float(telemetry.AttrGmin, gmin), telemetry.Float(telemetry.AttrWorstDV, worst))
			}
			return nil
		}
	}
	if on {
		metrics.convergeFail.Inc()
	}
	cerr := &ConvergenceError{
		Analysis:   "dc",
		Iterations: opt.MaxIter,
		Residual:   worst,
		WorstNode:  st.ix.unknownName(worstIx),
		Gmin:       gmin,
		Time:       st.Time,
	}
	if c.trace.Enabled() {
		c.trace.Emit(telemetry.KindCircuitConvergenceFailure, telemetry.Float(telemetry.AttrT, st.Time),
			telemetry.Int(telemetry.AttrIters, int64(cerr.Iterations)),
			telemetry.Float(telemetry.AttrWorstDV, worst), telemetry.Float(telemetry.AttrGmin, gmin))
	}
	return cerr
}

// SweepPoint is one solution of a DC sweep.
type SweepPoint struct {
	Value    float64
	Solution *Solution
}

// DCSweep steps the waveform value of the named voltage source across
// [from, to] with the given step, solving the operating point at each
// value with continuation (each solution seeds the next).
func (c *Circuit) DCSweep(source string, from, to, step float64, opt DCOptions) ([]SweepPoint, error) {
	opt.fill()
	el := c.Element(source)
	if el == nil {
		return nil, fmt.Errorf("circuit: sweep source %q not found", source)
	}
	vs, ok := el.(*VSource)
	if !ok {
		return nil, fmt.Errorf("circuit: sweep element %q is not a voltage source", source)
	}
	if step == 0 || (to-from)*step < 0 { //lint:allow floatcmp a zero step can never reach the sweep end
		return nil, fmt.Errorf("circuit: bad sweep step %g for range [%g,%g]", step, from, to)
	}
	saved := vs.Wave
	defer func() { vs.Wave = saved }()

	ix := c.buildIndex()
	st := newStamper(ix)
	x := make([]float64, ix.n)
	var out []SweepPoint
	n := int(math.Floor((to-from)/step + 0.5))
	for k := 0; k <= n; k++ {
		v := from + float64(k)*step
		vs.Wave = DC(v)
		if err := c.newton(st, x, 0, opt); err != nil {
			// Retry this point from scratch with gmin stepping.
			sol, err2 := c.OperatingPoint(opt)
			if err2 != nil {
				return nil, fmt.Errorf("circuit: sweep %s=%g: %w", source, v, err)
			}
			copy(x, sol.x)
		}
		if c.trace.Enabled() {
			c.trace.Emit(telemetry.KindCircuitDCSweepPoint, telemetry.Float(telemetry.AttrT, v))
		}
		out = append(out, SweepPoint{Value: v, Solution: (&Solution{ix: ix, x: x}).Clone()})
	}
	return out, nil
}

// solveStamped factors and solves the assembled MNA system.
func solveStamped(st *Stamper) ([]float64, error) {
	x, err := linalg.SolveLU(st.a, st.rhs)
	if err != nil {
		return nil, fmt.Errorf("circuit: singular MNA matrix: %w", err)
	}
	return x, nil
}
