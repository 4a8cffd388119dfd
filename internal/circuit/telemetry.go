package circuit

import (
	"fmt"

	"cntfet/internal/telemetry"
)

// metrics holds the pre-resolved telemetry handles of the MNA engine.
// Newton iterations factor a dense LU each pass, so the per-iteration
// instrument cost is negligible; call sites still gate on
// telemetry.On() so an un-instrumented run leaves the registry
// untouched.
var metrics = struct {
	dcSolves        *telemetry.Counter
	dcNewtonIters   *telemetry.Counter
	dcGminSteps     *telemetry.Counter
	luSolves        *telemetry.Counter
	convergeFail    *telemetry.Counter
	tranSteps       *telemetry.Counter
	tranNewtonIters *telemetry.Counter
	tranRetries     *telemetry.Counter
	acSolves        *telemetry.Counter
	newtonIterHist  *telemetry.Histogram
}{
	dcSolves:        telemetry.Default().Counter(telemetry.KeyCircuitDCSolves),
	dcNewtonIters:   telemetry.Default().Counter(telemetry.KeyCircuitDCNewtonIters),
	dcGminSteps:     telemetry.Default().Counter(telemetry.KeyCircuitDCGminSteps),
	luSolves:        telemetry.Default().Counter(telemetry.KeyCircuitLUSolves),
	convergeFail:    telemetry.Default().Counter(telemetry.KeyCircuitConvergenceFailures),
	tranSteps:       telemetry.Default().Counter(telemetry.KeyCircuitTranSteps),
	tranNewtonIters: telemetry.Default().Counter(telemetry.KeyCircuitTranNewtonIters),
	tranRetries:     telemetry.Default().Counter(telemetry.KeyCircuitTranRetries),
	acSolves:        telemetry.Default().Counter(telemetry.KeyCircuitACSolves),
	newtonIterHist:  telemetry.Default().Histogram(telemetry.KeyCircuitNewtonItersPerSolve, []float64{2, 4, 8, 16, 32, 64}),
}

// ConvergenceError carries the diagnostic state of a failed Newton
// loop: how long it ran, how far it still was from the tolerance, and
// which unknown was worst. It unwraps to ErrNoConvergence so existing
// errors.Is checks keep working.
type ConvergenceError struct {
	// Analysis is "dc" or "tran".
	Analysis string
	// Iterations is how many Newton iterations ran before giving up.
	Iterations int
	// Residual is the last update norm ‖Δx‖∞ in volts (the convergence
	// measure the loop tests against VTol).
	Residual float64
	// WorstNode names the unknown with the largest update: a node name,
	// or "I(<element>)" for a branch current.
	WorstNode string
	// Gmin is the shunt conductance active during the failed loop (0
	// for the plain pass).
	Gmin float64
	// Time is the transient timepoint (0 for DC).
	Time float64
}

func (e *ConvergenceError) Error() string {
	msg := fmt.Sprintf("circuit: %s analysis did not converge after %d iterations: |dV|=%g at %s (tolerance not met)",
		e.Analysis, e.Iterations, e.Residual, e.WorstNode)
	if e.Gmin > 0 {
		msg += fmt.Sprintf(" [gmin=%g]", e.Gmin)
	}
	if e.Time != 0 { //lint:allow floatcmp zero Time means DC, no timepoint to print
		msg += fmt.Sprintf(" [t=%g]", e.Time)
	}
	return msg
}

// Unwrap keeps errors.Is(err, ErrNoConvergence) true.
func (e *ConvergenceError) Unwrap() error { return ErrNoConvergence }

// unknownName returns the display name of MNA unknown i: the node
// name, or I(elem) for a branch-current row.
func (ix *indexer) unknownName(i int) string {
	for name, idx := range ix.node {
		if idx == i {
			return name
		}
	}
	// Every branch element in the library owns one row, so the first
	// branch row carries the element's name.
	for name, idx := range ix.branch {
		if i == idx {
			return "I(" + name + ")"
		}
	}
	return fmt.Sprintf("x[%d]", i)
}

// SetTrace attaches a tracer to the circuit: while it is enabled,
// every Newton solve and transient step emits a solver event
// ("circuit.dc.solve", "circuit.tran.step", ...) carrying its
// simulation time. A nil tracer (the default) is free. Set it before
// running analyses.
func (c *Circuit) SetTrace(tr *telemetry.Tracer) { c.trace = tr }

// Trace returns the attached tracer, or nil.
func (c *Circuit) Trace() *telemetry.Tracer { return c.trace }
