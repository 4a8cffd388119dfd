package core

import (
	"testing"

	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
	"cntfet/internal/units"
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

// TestPaperCellDispatchBudget pins the closed-form solve's region
// dispatch on the paper's fits: the nine (T, EF) cells of the default
// tube (150/300/450 K × EF −0.5/−0.32/0 eV), each swept over the
// Table-I grid (6 VG from 0.1 to 0.6 V × 61 VD from 0 to 0.6 V) through
// IDSBatch. Every solve lands in a linear, quadratic or Cardano region;
// none needs the trigonometric form and none misses its bracket. The
// counts were measured at commit ff87d8f and are exact: a change to the
// fit, the break merge or the bracket scan that moves a single solve to
// another branch fails here.
func TestPaperCellDispatchBudget(t *testing.T) {
	want := map[string]map[string]int64{
		"model1": {"core.solves": 3294, "core.dispatch.linear": 2118, "core.dispatch.quadratic": 1176},
		"model2": {"core.solves": 3294, "core.dispatch.linear": 1226, "core.dispatch.quadratic": 969, "core.dispatch.cardano": 1099},
	}
	var bias []fettoy.Bias
	for _, vg := range units.Linspace(0.1, 0.6, 6) {
		for _, vd := range units.Linspace(0, 0.6, 61) {
			bias = append(bias, fettoy.Bias{VG: vg, VD: vd})
		}
	}
	out := make([]float64, len(bias))
	telemetry.Enable()
	defer telemetry.Disable()
	reg := telemetry.Default()
	for name, spec := range map[string]Spec{"model1": Model1Spec(), "model2": Model2Spec()} {
		var models []*Model
		for _, temp := range []float64{150, 300, 450} {
			for _, ef := range []float64{-0.5, -0.32, 0} {
				dev := fettoy.Default()
				dev.T, dev.EF = temp, ef
				m, err := Fit(refModel(t, dev), spec, FitOptions{})
				if err != nil {
					t.Fatalf("%s at %g K, EF %g eV: %v", name, temp, ef, err)
				}
				models = append(models, m)
			}
		}
		mark := reg.CounterMark(nil)
		for _, m := range models {
			if err := m.IDSBatch(bias, out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		d := reg.CounterDelta(mark)
		for _, key := range []string{"core.solves", "core.dispatch.linear", "core.dispatch.quadratic",
			"core.dispatch.cardano", "core.dispatch.trig", "core.dispatch.none"} {
			if d[key] != want[name][key] {
				t.Errorf("%s: %s = %d, want %d", name, key, d[key], want[name][key])
			}
		}
	}
}
