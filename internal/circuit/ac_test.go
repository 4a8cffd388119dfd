package circuit

import (
	"context"
	"math"
	"math/cmplx"
	"testing"
)

func TestACRCLowPass(t *testing.T) {
	// R = 1k, C = 1n: fc = 1/(2πRC) ≈ 159.15 kHz. At fc the magnitude
	// is 1/√2 and the phase -45°.
	c := New()
	c.MustAdd(&VSource{Label: "VIN", P: "in", N: Ground, Wave: DC(0)})
	c.MustAdd(&Resistor{Label: "R1", A: "in", B: "out", Ohms: 1e3})
	c.MustAdd(&Capacitor{Label: "C1", A: "out", B: Ground, Farads: 1e-9})
	fc := 1 / (2 * math.Pi * 1e3 * 1e-9)
	pts, err := c.AC("VIN", []float64{fc / 100, fc, fc * 100}, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m := pts[0].Mag("out"); math.Abs(m-1) > 1e-3 {
		t.Fatalf("passband magnitude %g", m)
	}
	if m := pts[1].Mag("out"); math.Abs(m-1/math.Sqrt2) > 1e-3 {
		t.Fatalf("corner magnitude %g, want %g", m, 1/math.Sqrt2)
	}
	if ph := pts[1].PhaseDeg("out"); math.Abs(ph+45) > 0.5 {
		t.Fatalf("corner phase %g, want -45", ph)
	}
	// Two decades above the pole: -40 dB on a first-order filter is
	// -40... one decade is -20 dB; two decades ≈ 1/100.
	if m := pts[2].Mag("out"); m > 0.011 {
		t.Fatalf("stopband magnitude %g", m)
	}
}

func TestACDividerIsFrequencyFlat(t *testing.T) {
	c := New()
	c.MustAdd(&VSource{Label: "VIN", P: "in", N: Ground, Wave: DC(5)})
	c.MustAdd(&Resistor{Label: "R1", A: "in", B: "out", Ohms: 3e3})
	c.MustAdd(&Resistor{Label: "R2", A: "out", B: Ground, Ohms: 1e3})
	pts, err := c.AC("VIN", []float64{1, 1e6, 1e12}, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if math.Abs(p.Mag("out")-0.25) > 1e-12 {
			t.Fatalf("divider AC gain %g at %g Hz", p.Mag("out"), p.Freq)
		}
	}
}

func TestACCommonSourceGainMatchesConductances(t *testing.T) {
	// Low-frequency gain of a resistively loaded common-source stage:
	// |A| = gm·(RL ∥ 1/gds), with gm/gds from the device model at the
	// operating point.
	model := newFastModel(t)
	c := New()
	c.MustAdd(&VSource{Label: "VDD", P: "vdd", N: Ground, Wave: DC(0.6)})
	c.MustAdd(&VSource{Label: "VIN", P: "g", N: Ground, Wave: DC(0.45)})
	c.MustAdd(&Resistor{Label: "RL", A: "vdd", B: "d", Ohms: 30e3})
	fet := &CNTFET{Label: "M1", D: "d", G: "g", S: Ground, Model: model}
	c.MustAdd(fet)
	op, err := c.OperatingPoint(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, gm, gds, err := fet.conductances(op.Voltage("d"), op.Voltage("g"), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := gm / (1/30e3 + gds)
	pts, err := c.AC("VIN", []float64{1e3}, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	got := pts[0].Mag("d")
	if math.Abs(got-want)/want > 1e-6 {
		t.Fatalf("AC gain %g, gm/(GL+gds) = %g", got, want)
	}
	// Inverting stage: output phase 180°.
	if ph := math.Abs(pts[0].PhaseDeg("d")); math.Abs(ph-180) > 0.01 {
		t.Fatalf("phase %g, want ±180", ph)
	}
}

func TestACInverterBandwidthSetByLoad(t *testing.T) {
	// CNT inverter with load cap: the -3dB bandwidth must fall when
	// the load doubles.
	model := newFastModel(t)
	build := func(cl float64) *Circuit {
		c := New()
		c.MustAdd(&VSource{Label: "VDD", P: "vdd", N: Ground, Wave: DC(0.6)})
		c.MustAdd(&VSource{Label: "VIN", P: "in", N: Ground, Wave: DC(0.3)})
		c.MustAdd(&CNTFET{Label: "MP", D: "out", G: "in", S: "vdd", Model: model, Pol: PType})
		c.MustAdd(&CNTFET{Label: "MN", D: "out", G: "in", S: Ground, Model: model})
		c.MustAdd(&Capacitor{Label: "CL", A: "out", B: Ground, Farads: cl})
		return c
	}
	bw := func(c *Circuit) float64 {
		freqs, err := DecadeFrequencies(1e6, 1e13, 20)
		if err != nil {
			t.Fatal(err)
		}
		pts, err := c.AC("VIN", freqs, DCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		dc := pts[0].Mag("out")
		for _, p := range pts {
			if p.Mag("out") < dc/math.Sqrt2 {
				return p.Freq
			}
		}
		return math.Inf(1)
	}
	b1 := bw(build(1e-15))
	b2 := bw(build(2e-15))
	if math.IsInf(b1, 0) || math.IsInf(b2, 0) {
		t.Fatalf("no rolloff found: %g %g", b1, b2)
	}
	ratio := b1 / b2
	if ratio < 1.6 || ratio > 2.4 {
		t.Fatalf("bandwidth ratio %g, want ≈2", ratio)
	}
}

func TestACErrors(t *testing.T) {
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "a", N: Ground, Wave: DC(1)})
	c.MustAdd(&Resistor{Label: "R1", A: "a", B: Ground, Ohms: 1})
	if _, err := c.AC("nope", []float64{1}, DCOptions{}); err == nil {
		t.Fatal("missing source accepted")
	}
	if _, err := c.AC("V1", []float64{-1}, DCOptions{}); err == nil {
		t.Fatal("negative frequency accepted")
	}
}

func TestDecadeFrequencies(t *testing.T) {
	f, err := DecadeFrequencies(1, 1000, 10)
	if err != nil {
		t.Fatal(err)
	}
	if f[0] != 1 || math.Abs(f[len(f)-1]-1000) > 1e-9 {
		t.Fatalf("range %g..%g", f[0], f[len(f)-1])
	}
	if len(f) != 31 {
		t.Fatalf("%d points", len(f))
	}
	if _, err := DecadeFrequencies(0, 10, 5); err == nil {
		t.Fatal("zero fstart accepted")
	}
	if _, err := DecadeFrequencies(10, 1, 5); err == nil {
		t.Fatal("inverted range accepted")
	}
}

func TestACISourceExcitation(t *testing.T) {
	c := New()
	c.MustAdd(&ISource{Label: "I1", P: "n", N: Ground, Wave: DC(0)})
	c.MustAdd(&Resistor{Label: "R1", A: "n", B: Ground, Ohms: 2e3})
	pts, err := c.AC("I1", []float64{100}, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m := pts[0].Mag("n"); math.Abs(m-2e3) > 1e-6 {
		t.Fatalf("transimpedance %g, want 2000", m)
	}
}

func TestInductorDCShort(t *testing.T) {
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "in", N: Ground, Wave: DC(2)})
	c.MustAdd(&Resistor{Label: "R1", A: "in", B: "mid", Ohms: 1e3})
	c.MustAdd(&Inductor{Label: "L1", A: "mid", B: Ground, Henrys: 1e-6})
	sol, err := c.OperatingPoint(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v := sol.Voltage("mid"); math.Abs(v) > 1e-9 {
		t.Fatalf("inductor DC drop %g, want short", v)
	}
	if i := sol.BranchCurrent("L1"); math.Abs(i-2e-3) > 1e-9 {
		t.Fatalf("inductor current %g, want 2mA", i)
	}
}

func TestRLStepResponse(t *testing.T) {
	// I(t) = (V/R)(1 - e^{-tR/L}); τ = L/R = 1 µs.
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "in", N: Ground,
		Wave: Pulse{V1: 0, V2: 1, Rise: 1e-9, Width: 1}})
	c.MustAdd(&Resistor{Label: "R1", A: "in", B: "mid", Ohms: 1e3})
	c.MustAdd(&Inductor{Label: "L1", A: "mid", B: Ground, Henrys: 1e-3})
	sols, err := c.Transient(context.Background(), TranOptions{Step: 1e-8, Stop: 5e-6})
	if err != nil {
		t.Fatal(err)
	}
	var atTau float64
	for _, s := range sols {
		if s.Time >= 1e-6 {
			atTau = s.BranchCurrent("L1")
			break
		}
	}
	if math.Abs(atTau-0.632e-3) > 0.05e-3 {
		t.Fatalf("I(τ) = %g, want ≈0.632 mA", atTau)
	}
	last := sols[len(sols)-1].BranchCurrent("L1")
	if math.Abs(last-1e-3) > 0.02e-3 {
		t.Fatalf("I(5τ) = %g", last)
	}
}

func TestSeriesRLCResonance(t *testing.T) {
	// Series RLC driven across the resistor: the current (and hence
	// the resistor voltage) peaks at f0 = 1/(2π√(LC)).
	c := New()
	c.MustAdd(&VSource{Label: "VIN", P: "in", N: Ground, Wave: DC(0)})
	c.MustAdd(&Inductor{Label: "L1", A: "in", B: "a", Henrys: 1e-6})
	c.MustAdd(&Capacitor{Label: "C1", A: "a", B: "b", Farads: 1e-9})
	c.MustAdd(&Resistor{Label: "R1", A: "b", B: Ground, Ohms: 10})
	f0 := 1 / (2 * math.Pi * math.Sqrt(1e-6*1e-9))
	freqs := []float64{f0 / 10, f0 / 2, f0, f0 * 2, f0 * 10}
	pts, err := c.AC("VIN", freqs, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	peak := pts[2].Mag("b")
	if math.Abs(peak-1) > 1e-3 {
		t.Fatalf("on-resonance transfer %g, want ~1", peak)
	}
	for i, p := range pts {
		if i != 2 && p.Mag("b") >= peak {
			t.Fatalf("off-resonance %g Hz transfer %g >= peak", p.Freq, p.Mag("b"))
		}
	}
}

func TestACDiodeSmallSignal(t *testing.T) {
	// Diode biased through a resistor: its AC small-signal conductance
	// at the operating point sets the attenuation g/(g+G).
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "in", N: Ground, Wave: DC(5)})
	c.MustAdd(&Resistor{Label: "R1", A: "in", B: "d", Ohms: 1e3})
	c.MustAdd(&Diode{Label: "D1", A: "d", B: Ground, Is: 1e-14})
	op, err := c.OperatingPoint(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vt := 8.617333262e-5 * 300
	g := 1e-14 * math.Exp(op.Voltage("d")/vt) / vt
	want := (1 / 1e3) / (1/1e3 + g)
	pts, err := c.AC("V1", []float64{1e3}, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := pts[0].Mag("d"); math.Abs(got-want)/want > 1e-3 {
		t.Fatalf("diode AC attenuation %g, want %g", got, want)
	}
}

func TestACControlledSourcesAndBranchCurrent(t *testing.T) {
	c := New()
	c.MustAdd(&VSource{Label: "VIN", P: "c", N: Ground, Wave: DC(0)})
	c.MustAdd(&Resistor{Label: "RC", A: "c", B: Ground, Ohms: 1e6})
	c.MustAdd(&VCVS{Label: "E1", P: "e", N: Ground, CP: "c", CN: Ground, Gain: 4})
	c.MustAdd(&Resistor{Label: "RE", A: "e", B: Ground, Ohms: 100})
	c.MustAdd(&VCCS{Label: "G1", P: "g", N: Ground, CP: "c", CN: Ground, Gain: 1e-3})
	c.MustAdd(&Resistor{Label: "RG", A: "g", B: Ground, Ohms: 1e3})
	pts, err := c.AC("VIN", []float64{1e4}, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	p := pts[0]
	if m := p.Mag("e"); math.Abs(m-4) > 1e-9 {
		t.Fatalf("VCVS AC gain %g", m)
	}
	if m := p.Mag("g"); math.Abs(m-1) > 1e-9 {
		t.Fatalf("VCCS AC transfer %g", m)
	}
	// The VCVS branch drives 40 mA into its 100Ω load.
	if i := cmplx.Abs(p.BranchCurrent("E1")); math.Abs(i-0.04) > 1e-9 {
		t.Fatalf("VCVS AC branch current %g", i)
	}
	if p.BranchCurrent("RG") != 0 {
		t.Fatal("non-branch element should read 0")
	}
}

func TestCircuitElementsAccessor(t *testing.T) {
	c := New()
	c.MustAdd(&Resistor{Label: "R1", A: "a", B: Ground, Ohms: 1})
	c.MustAdd(&Resistor{Label: "R2", A: "a", B: Ground, Ohms: 2})
	els := c.Elements()
	if len(els) != 2 || els[0].Name() != "R1" || els[1].Name() != "R2" {
		t.Fatalf("Elements() = %v", els)
	}
}

func TestMustAddPanicsOnDuplicate(t *testing.T) {
	c := New()
	c.MustAdd(&Resistor{Label: "R1", A: "a", B: Ground, Ohms: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.MustAdd(&Resistor{Label: "R1", A: "b", B: Ground, Ohms: 1})
}

func TestGminSteppingRescuesTightBudget(t *testing.T) {
	// Two stacked diodes from 10 V through 100Ω: plain Newton from
	// zero with a tiny iteration budget fails, but the gmin ladder
	// (each rung warm-starting the next) still lands the answer.
	build := func() *Circuit {
		c := New()
		c.MustAdd(&VSource{Label: "V1", P: "in", N: Ground, Wave: DC(10)})
		c.MustAdd(&Resistor{Label: "R1", A: "in", B: "d1", Ohms: 100})
		c.MustAdd(&Diode{Label: "D1", A: "d1", B: "d2", Is: 1e-15})
		c.MustAdd(&Diode{Label: "D2", A: "d2", B: Ground, Is: 1e-15})
		return c
	}
	sol, err := build().OperatingPoint(DCOptions{MaxIter: 26})
	if err != nil {
		t.Fatalf("gmin stepping failed: %v", err)
	}
	v1, v2 := sol.Voltage("d1"), sol.Voltage("d2")
	if v1-v2 < 0.5 || v1-v2 > 1 || v2 < 0.5 || v2 > 1 {
		t.Fatalf("diode stack drops %g, %g", v1-v2, v2)
	}
}
