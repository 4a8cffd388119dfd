package circuit

import (
	"context"
	"fmt"
	"math"

	"cntfet/internal/telemetry"
)

// TranOptions configures a transient analysis.
type TranOptions struct {
	// Step is the fixed timestep (required, > 0).
	Step float64
	// Stop is the end time (required, > Step).
	Stop float64
	// Trapezoidal selects the trapezoidal rule instead of backward
	// Euler. BE is the robust default; trapezoidal is second-order but
	// can ring on ideal-switch stimuli.
	Trapezoidal bool
	// DC tunes the per-step Newton solves.
	DC DCOptions
}

// cancelEvery is how many timesteps a transient runs between checks
// of its context: often enough that a canceled run stops within a
// fraction of a second, rarely enough that the check costs nothing
// next to the Newton solves of a step.
const cancelEvery = 64

// canceled reports, every cancelEvery-th step k, a transient's context
// error, wrapped with the simulation time t it stopped at.
func canceled(ctx context.Context, k int, t float64) error {
	if k%cancelEvery != 0 {
		return nil
	}
	if err := context.Cause(ctx); err != nil {
		return fmt.Errorf("circuit: transient canceled at t=%g: %w", t, err)
	}
	return nil
}

// Transient runs a fixed-step transient from the DC operating point at
// t = 0 and returns the solution at every accepted timestep, including
// the initial point. It checks ctx every few steps; a canceled run
// returns the solutions so far and an error wrapping the context's
// cause.
func (c *Circuit) Transient(ctx context.Context, opt TranOptions) ([]*Solution, error) {
	if opt.Step <= 0 || opt.Stop <= opt.Step {
		return nil, fmt.Errorf("circuit: bad transient window step=%g stop=%g", opt.Step, opt.Stop)
	}
	opt.DC.fill()

	// Initial condition: DC operating point with sources at t = 0.
	init, err := c.OperatingPoint(opt.DC)
	if err != nil {
		return nil, fmt.Errorf("circuit: transient initial point: %w", err)
	}
	ix := init.ix
	st := newStamper(ix)
	x := append([]float64(nil), init.x...)
	prev := init.Clone()
	out := []*Solution{init.Clone()}

	steps := int(opt.Stop/opt.Step + 0.5)
	for k := 1; k <= steps; k++ {
		t := float64(k) * opt.Step
		if err := canceled(ctx, k, t); err != nil {
			return out, err
		}
		st.Time = t
		st.Dt = opt.Step
		st.Trapezoidal = opt.Trapezoidal
		st.prev = prev
		iters, err := c.newtonTran(st, x, opt.DC)
		if err != nil {
			return out, fmt.Errorf("circuit: transient step at t=%g: %w", t, err)
		}
		if telemetry.On() {
			metrics.tranSteps.Inc()
		}
		if c.trace.Enabled() {
			c.trace.Emit(telemetry.KindCircuitTranStep, telemetry.Float(telemetry.AttrT, t),
				telemetry.Int(telemetry.AttrIters, int64(iters)), telemetry.Float(telemetry.AttrDT, opt.Step))
		}
		now := &Solution{ix: ix, x: append([]float64(nil), x...), Time: t}
		// Roll trapezoidal capacitor state.
		if opt.Trapezoidal {
			for _, e := range c.elems {
				if cap, ok := e.(*Capacitor); ok {
					cap.prevCurrent = cap.Current(now, prev, opt.Step, true)
				}
			}
		}
		out = append(out, now)
		prev = now
	}
	return out, nil
}

// newtonTran is the per-step Newton loop; it differs from the DC loop
// only in that the stamper carries time/dt context, which reset()
// preserves. It returns the iteration count that reached convergence;
// on failure the error is a *ConvergenceError with the last residual
// and worst node.
func (c *Circuit) newtonTran(st *Stamper, x []float64, opt DCOptions) (int, error) {
	on := telemetry.On()
	time, dt, trap, prev := st.Time, st.Dt, st.Trapezoidal, st.prev
	worst, worstIx := 0.0, 0
	for iter := 0; iter < opt.MaxIter; iter++ {
		st.reset(x)
		st.Time, st.Dt, st.Trapezoidal, st.prev = time, dt, trap, prev
		for _, e := range c.elems {
			e.Stamp(st)
		}
		xNew, err := solveStamped(st)
		if on {
			metrics.luSolves.Inc()
			metrics.tranNewtonIters.Inc()
		}
		if err != nil {
			return iter, err
		}
		worst, worstIx = 0.0, 0
		for i := range x {
			d := xNew[i] - x[i]
			if d > opt.MaxStep {
				d = opt.MaxStep
			} else if d < -opt.MaxStep {
				d = -opt.MaxStep
			}
			x[i] += d
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst, worstIx = d, i
			}
		}
		if worst < opt.VTol {
			if on {
				metrics.newtonIterHist.Observe(float64(iter + 1))
			}
			return iter + 1, nil
		}
	}
	if on {
		metrics.convergeFail.Inc()
	}
	cerr := &ConvergenceError{
		Analysis:   "tran",
		Iterations: opt.MaxIter,
		Residual:   worst,
		WorstNode:  st.ix.unknownName(worstIx),
		Time:       time,
	}
	if c.trace.Enabled() {
		c.trace.Emit(telemetry.KindCircuitConvergenceFailure, telemetry.Float(telemetry.AttrT, time),
			telemetry.Int(telemetry.AttrIters, int64(cerr.Iterations)),
			telemetry.Float(telemetry.AttrWorstDV, worst), telemetry.Float(telemetry.AttrDT, dt))
	}
	return opt.MaxIter, cerr
}

// TranAdaptiveOptions configures an adaptive-step transient analysis.
type TranAdaptiveOptions struct {
	// Stop is the end time (required).
	Stop float64
	// MinStep and MaxStep bound the step size. Zero values default to
	// Stop/1e6 and Stop/50.
	MinStep, MaxStep float64
	// Tol is the per-step local-truncation-error tolerance on node
	// voltages (default 1e-4 V).
	Tol float64
	// DC tunes the per-step Newton solves.
	DC DCOptions
}

// TransientAdaptive integrates with backward Euler under step-doubling
// error control: each accepted step compares one full step against two
// half steps; the difference estimates the local truncation error,
// shrinking the step when it exceeds Tol and growing it when it is
// comfortably below. Sharp stimulus edges therefore get small steps
// automatically while quiescent stretches take large ones. Like
// Transient, it checks ctx every few steps, retries included.
func (c *Circuit) TransientAdaptive(ctx context.Context, opt TranAdaptiveOptions) ([]*Solution, error) {
	if opt.Stop <= 0 {
		return nil, fmt.Errorf("circuit: bad adaptive transient stop %g", opt.Stop)
	}
	if opt.MinStep <= 0 {
		opt.MinStep = opt.Stop / 1e6
	}
	if opt.MaxStep <= 0 {
		opt.MaxStep = opt.Stop / 50
	}
	if opt.MinStep > opt.MaxStep {
		return nil, fmt.Errorf("circuit: MinStep %g above MaxStep %g", opt.MinStep, opt.MaxStep)
	}
	if opt.Tol <= 0 {
		opt.Tol = 1e-4
	}
	opt.DC.fill()

	init, err := c.OperatingPoint(opt.DC)
	if err != nil {
		return nil, fmt.Errorf("circuit: adaptive transient initial point: %w", err)
	}
	out := []*Solution{init.Clone()}
	prev := init.Clone()
	h := opt.MaxStep / 4

	for k := 1; prev.Time < opt.Stop; k++ {
		if err := canceled(ctx, k, prev.Time); err != nil {
			return out, err
		}
		if prev.Time+h > opt.Stop {
			h = opt.Stop - prev.Time
		}
		// The error estimator advances by half steps; once h/2
		// underflows the time axis the remaining interval is below
		// float resolution and the run is complete.
		if h <= 0 || prev.Time+h/2 == prev.Time { //lint:allow floatcmp detects exact h/2 underflow against the time axis
			break
		}
		full, err := c.stepBE(prev, h, opt.DC)
		if err != nil {
			return out, err
		}
		mid, err := c.stepBE(prev, h/2, opt.DC)
		if err != nil {
			return out, err
		}
		half, err := c.stepBE(mid, h/2, opt.DC)
		if err != nil {
			return out, err
		}
		// LTE estimate: BE is first order, so the two-half-step result
		// is twice as accurate; the difference bounds the error.
		lte := 0.0
		for i := range full.x {
			if d := math.Abs(full.x[i] - half.x[i]); d > lte {
				lte = d
			}
		}
		if lte > opt.Tol && h > opt.MinStep {
			if telemetry.On() {
				metrics.tranRetries.Inc()
			}
			if c.trace.Enabled() {
				c.trace.Emit(telemetry.KindCircuitTranRetry, telemetry.Float(telemetry.AttrT, prev.Time),
					telemetry.Float(telemetry.AttrLTE, lte), telemetry.Float(telemetry.AttrDT, h))
			}
			h = math.Max(h/2, opt.MinStep)
			continue // retry the step
		}
		// Accept the more accurate half-step composition.
		if telemetry.On() {
			metrics.tranSteps.Inc()
		}
		if c.trace.Enabled() {
			c.trace.Emit(telemetry.KindCircuitTranStep, telemetry.Float(telemetry.AttrT, half.Time),
				telemetry.Float(telemetry.AttrLTE, lte), telemetry.Float(telemetry.AttrDT, h))
		}
		out = append(out, half)
		prev = half
		if lte < opt.Tol/4 && h < opt.MaxStep {
			h = math.Min(h*1.5, opt.MaxStep)
		}
	}
	return out, nil
}

// stepBE advances one backward-Euler step of size dt from prev.
func (c *Circuit) stepBE(prev *Solution, dt float64, opt DCOptions) (*Solution, error) {
	ix := prev.ix
	st := newStamper(ix)
	st.Time = prev.Time + dt
	st.Dt = dt
	st.prev = prev
	x := append([]float64(nil), prev.x...)
	if _, err := c.newtonTran(st, x, opt); err != nil {
		return nil, fmt.Errorf("circuit: adaptive step at t=%g: %w", st.Time, err)
	}
	return &Solution{ix: ix, x: x, Time: prev.Time + dt}, nil
}
