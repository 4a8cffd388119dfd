package core

import (
	"testing"

	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

func fitTestModel(tb testing.TB, spec Spec) *Model {
	tb.Helper()
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		tb.Fatal(err)
	}
	m, err := Fit(ref, spec, FitOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// TestDispatchCounters checks that enabled telemetry attributes every
// closed-form solve to exactly one region-dispatch branch.
func TestDispatchCounters(t *testing.T) {
	m := fitTestModel(t, Model2Spec())
	telemetry.Enable()
	defer telemetry.Disable()
	reg := telemetry.Default()
	mark := reg.CounterMark(nil)

	solves := 0
	for _, vg := range []float64{0.0, 0.2, 0.4, 0.6} {
		for _, vd := range []float64{0.0, 0.3, 0.6} {
			if _, err := m.SolveVSC(fettoy.Bias{VG: vg, VD: vd}); err != nil {
				t.Fatalf("VG=%g VD=%g: %v", vg, vd, err)
			}
			solves++
		}
	}

	d := reg.CounterDelta(mark)
	if got := d["core.solves"]; got != int64(solves) {
		t.Fatalf("core.solves = %d, want %d", got, solves)
	}
	branches := d["core.dispatch.linear"] + d["core.dispatch.quadratic"] +
		d["core.dispatch.cardano"] + d["core.dispatch.trig"] + d["core.dispatch.none"]
	if branches != int64(solves) {
		t.Fatalf("dispatch branches sum to %d, want %d", branches, solves)
	}
	if got := d["core.fallback_generic"]; got != 0 {
		t.Fatalf("unexpected generic fallbacks: %d", got)
	}
}

// TestDisabledTelemetryCountsNothing pins the no-op fast path: with the
// gate off, solver work must leave the registry untouched.
func TestDisabledTelemetryCountsNothing(t *testing.T) {
	m := fitTestModel(t, Model1Spec())
	telemetry.Disable()
	mark := telemetry.Default().CounterMark(nil)
	for i := 0; i < 10; i++ {
		if _, err := m.IDS(fettoy.Bias{VG: 0.5, VD: 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	if got := telemetry.Default().CounterDelta(mark)["core.solves"]; got != 0 {
		t.Fatalf("disabled telemetry still counted %d solves", got)
	}
}

// benchIDS is the shared body of the telemetry-overhead benchmarks.
// The satellite requirement is that the disabled path costs <2% on
// Piecewise.IDS; compare BenchmarkIDSTelemetryOff against
// BenchmarkIDSTelemetryOn (and against historical BENCH numbers) to
// read the gate and instrument costs respectively.
func benchIDS(b *testing.B, enabled bool) {
	m := fitTestModel(b, Model2Spec())
	was := telemetry.On()
	telemetry.Default().SetEnabled(enabled)
	defer telemetry.Default().SetEnabled(was)
	bias := fettoy.Bias{VG: 0.5, VD: 0.3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.IDS(bias); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIDSTelemetryOff(b *testing.B) { benchIDS(b, false) }
func BenchmarkIDSTelemetryOn(b *testing.B)  { benchIDS(b, true) }
