package circuit

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cntfet/internal/telemetry"
)

// hardCircuit builds a diode charging loop that cannot converge in one
// iteration from a zero start.
func hardCircuit(t *testing.T) *Circuit {
	t.Helper()
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "a", N: Ground, Wave: DC(5)})
	c.MustAdd(&Resistor{Label: "R1", A: "a", B: "b", Ohms: 100})
	c.MustAdd(&Diode{Label: "D1", A: "b", B: Ground, Is: 1e-14})
	return c
}

func TestConvergenceErrorDiagnostics(t *testing.T) {
	c := hardCircuit(t)
	// A one-iteration budget cannot converge the diode's exponential
	// and gmin stepping cannot rescue it.
	_, err := c.OperatingPoint(DCOptions{MaxIter: 1, GminSteps: 1})
	if err == nil {
		t.Fatal("expected convergence failure")
	}
	if !errors.Is(err, ErrNoConvergence) {
		t.Fatalf("error does not unwrap to ErrNoConvergence: %v", err)
	}
	var cerr *ConvergenceError
	if !errors.As(err, &cerr) {
		t.Fatalf("error is not a *ConvergenceError: %v", err)
	}
	if cerr.Iterations != 1 || cerr.Residual <= 0 || cerr.WorstNode == "" {
		t.Fatalf("missing diagnostics: %+v", cerr)
	}
	msg := err.Error()
	for _, want := range []string{"1 iterations", "|dV|=", cerr.WorstNode} {
		if !strings.Contains(msg, want) {
			t.Fatalf("error message %q missing %q", msg, want)
		}
	}
}

func TestUnknownNames(t *testing.T) {
	c := hardCircuit(t)
	ix := c.buildIndex()
	seen := map[string]bool{}
	for i := 0; i < ix.n; i++ {
		seen[ix.unknownName(i)] = true
	}
	for _, want := range []string{"a", "b", "I(V1)"} {
		if !seen[want] {
			t.Fatalf("unknown names missing %q: %v", want, seen)
		}
	}
}

func TestTransientTraceAndCounters(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	mark := telemetry.Default().CounterMark(nil)

	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "in", N: Ground,
		Wave: Pulse{V1: 0, V2: 1, Delay: 1e-9, Rise: 1e-10, Fall: 1e-10, Width: 2e-9, Period: 4e-9}})
	c.MustAdd(&Resistor{Label: "R1", A: "in", B: "out", Ohms: 1e3})
	c.MustAdd(&Capacitor{Label: "C1", A: "out", B: Ground, Farads: 1e-12})
	tr := telemetry.NewTracer(1024)
	tr.SetEnabled(true)
	c.SetTrace(tr)

	sols, err := c.Transient(context.Background(), TranOptions{Step: 1e-10, Stop: 4e-9})
	if err != nil {
		t.Fatal(err)
	}
	steps := len(sols) - 1 // the initial point is not a step

	d := telemetry.Default().CounterDelta(mark)
	if got := d["circuit.tran.steps"]; got != int64(steps) {
		t.Fatalf("circuit.tran.steps = %d, want %d", got, steps)
	}
	if iters := d["circuit.tran.newton_iters"]; iters < int64(steps) {
		t.Fatalf("newton iters %d below step count %d", iters, steps)
	}

	var stepEvents int
	for _, ev := range tr.Spans() {
		if ev.Kind == "circuit.tran.step" {
			stepEvents++
			if ev.Attrs["iters"].(int64) < 1 || ev.Attrs["dt"] != 1e-10 {
				t.Fatalf("bad step event %+v", ev)
			}
		}
	}
	if stepEvents != steps {
		t.Fatalf("trace has %d step events, want %d", stepEvents, steps)
	}
}
