package cntfet

import (
	"context"
	"math"
	"strings"
	"testing"
)

// The public circuit surface: build, solve and probe without touching
// internal packages (everything below compiles purely against the
// aliases in spice.go).
func TestPublicCircuitSurface(t *testing.T) {
	fast, err := NewModel2(DefaultDevice())
	if err != nil {
		t.Fatal(err)
	}
	c := NewCircuit()
	c.MustAdd(&VSource{Label: "VDD", P: "vdd", N: Ground, Wave: DCWave(0.6)})
	c.MustAdd(&VSource{Label: "VIN", P: "in", N: Ground, Wave: DCWave(0.3)})
	c.MustAdd(&CNTFETElem{Label: "MP", D: "out", G: "in", S: "vdd", Model: fast, Pol: PType})
	c.MustAdd(&CNTFETElem{Label: "MN", D: "out", G: "in", S: Ground, Model: fast, Pol: NType})
	c.MustAdd(&CapacitorElem{Label: "CL", A: "out", B: Ground, Farads: 1e-15})

	sol, err := c.OperatingPoint(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := sol.Voltage("out"); v < 0.1 || v > 0.5 {
		t.Fatalf("midpoint inverter output %g", v)
	}

	m, err := MeasureVTC(c, "VIN", "out", 0.6, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if m.Gain < 5 {
		t.Fatalf("gain %g", m.Gain)
	}

	freqs, err := DecadeFrequencies(1e6, 1e11, 5)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := c.AC("VIN", freqs, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if pts[0].Mag("out") <= pts[len(pts)-1].Mag("out") {
		t.Fatal("no AC rolloff through the public surface")
	}
}

func TestPublicDeckRunner(t *testing.T) {
	var b strings.Builder
	err := RunDeck(context.Background(), `divider
V1 in 0 4
R1 in out 1k
R2 out 0 1k
.op
.print v(out)
`, &b)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "2") {
		t.Fatalf("output:\n%s", b.String())
	}
	if err := RunDeck(context.Background(), "broken deck\nR1 x\n.op\n", &strings.Builder{}); err == nil {
		t.Fatal("bad deck accepted")
	}
}

func TestPublicLogicAndVariation(t *testing.T) {
	fast, err := NewModel2(DefaultDevice())
	if err != nil {
		t.Fatal(err)
	}
	l := &LogicLibrary{Model: fast, VDD: 0.6, LoadCap: 2e-15}
	c := NewCircuit()
	if err := l.Supply(c, "VDD"); err != nil {
		t.Fatal(err)
	}
	c.MustAdd(&VSource{Label: "VIN", P: "in", N: Ground,
		Wave: PulseWave{V1: 0, V2: 0.6, Rise: 10e-12, Width: 2e-9, Fall: 10e-12, Period: 1}})
	if err := l.Inverter(c, "inv", "in", "out"); err != nil {
		t.Fatal(err)
	}
	sols, err := c.Transient(context.Background(), TranOptions{Step: 10e-12, Stop: 1.5e-9})
	if err != nil {
		t.Fatal(err)
	}
	tpHL, _ := PropagationDelay(sols, "in", "out", 0.6)
	if tpHL <= 0 || tpHL > 1e-9 {
		t.Fatalf("tpHL = %g", tpHL)
	}

	res, err := MonteCarloIDS(context.Background(), DefaultDevice(), VariationSpread{EF: 0.01}, Bias{VG: 0.5, VD: 0.4}, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	sens, err := EFSensitivity(DefaultDevice(), Bias{VG: 0.5, VD: 0.4}, 1e-3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Std <= 0 || sens <= 0 {
		t.Fatalf("std %g sens %g", res.Std, sens)
	}
	if ratio := res.Std / (sens * 0.01); math.Abs(ratio-1) > 0.5 {
		t.Fatalf("MC spread %g vs linearised %g", res.Std, sens*0.01)
	}
}
