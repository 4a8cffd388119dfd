package netlist

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"cntfet/internal/telemetry"
)

func TestParseOptions(t *testing.T) {
	d, err := Parse(`rc deck
V1 in 0 1
R1 in out 1k
C1 out 0 1p
.options trace metrics tracecap=128
.op
.end`)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Options.Trace || !d.Options.Metrics || d.Options.TraceCap != 128 {
		t.Fatalf("options = %+v", d.Options)
	}
	if _, err := Parse("x\nV1 a 0 1\n.options bogus\n.op\n.end"); err == nil {
		t.Fatal("unknown .options key must be rejected")
	}
}

func TestOptionsTraceProducesEventLog(t *testing.T) {
	defer telemetry.Disable() // .options trace enables the global gate
	d, err := Parse(`rc transient
V1 in 0 PULSE(0 1 1n 0.1n 0.1n 2n 4n)
R1 in out 1k
C1 out 0 1p
.options trace metrics
.tran 0.2n 4n
.print v(out)
.end`)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.Run(context.Background(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "* trace events (json lines):") {
		t.Fatalf("missing trace section:\n%s", out)
	}
	// Every line starting with '{' must be a parseable event, and the
	// transient must have produced per-step events.
	steps := 0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var ev telemetry.SpanData
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("unparseable event %q: %v", line, err)
		}
		if ev.Kind == "circuit.tran.step" {
			steps++
		}
	}
	if steps != 20 {
		t.Fatalf("trace has %d tran step events, want 20", steps)
	}
	// The metrics block reports the process-global registry, so other
	// enabled-telemetry tests may have contributed; require presence,
	// not an exact value.
	if !strings.Contains(out, "* circuit.tran.steps ") {
		t.Fatalf("metrics section missing step counter:\n%s", out)
	}
}
