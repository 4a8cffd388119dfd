package circuit

import (
	"context"
	"errors"
	"math"
	"testing"

	"cntfet/internal/core"
	"cntfet/internal/device"
	"cntfet/internal/fettoy"
)

func op(t *testing.T, c *Circuit) *Solution {
	t.Helper()
	sol, err := c.OperatingPoint(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return sol
}

func TestVoltageDividerDC(t *testing.T) {
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "in", N: Ground, Wave: DC(10)})
	c.MustAdd(&Resistor{Label: "R1", A: "in", B: "out", Ohms: 1e3})
	c.MustAdd(&Resistor{Label: "R2", A: "out", B: Ground, Ohms: 3e3})
	sol := op(t, c)
	if v := sol.Voltage("out"); math.Abs(v-7.5) > 1e-9 {
		t.Fatalf("divider out = %g, want 7.5", v)
	}
	// Branch current: 10V across 4k -> 2.5mA flowing out of +.
	if i := sol.BranchCurrent("V1"); math.Abs(i+2.5e-3) > 1e-9 {
		t.Fatalf("source current = %g, want -2.5e-3", i)
	}
}

func TestCurrentSourceDC(t *testing.T) {
	c := New()
	c.MustAdd(&ISource{Label: "I1", P: "n", N: Ground, Wave: DC(1e-3)})
	c.MustAdd(&Resistor{Label: "R1", A: "n", B: Ground, Ohms: 2e3})
	sol := op(t, c)
	if v := sol.Voltage("n"); math.Abs(v-2) > 1e-9 {
		t.Fatalf("node = %g, want 2", v)
	}
}

func TestDuplicateElementRejected(t *testing.T) {
	c := New()
	c.MustAdd(&Resistor{Label: "R1", A: "a", B: Ground, Ohms: 1})
	if err := c.Add(&Resistor{Label: "R1", A: "b", B: Ground, Ohms: 1}); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if err := c.Add(&Resistor{Label: "", A: "b", B: Ground, Ohms: 1}); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestGroundAndUnknownProbesReadZero(t *testing.T) {
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "a", N: Ground, Wave: DC(1)})
	c.MustAdd(&Resistor{Label: "R1", A: "a", B: Ground, Ohms: 1})
	sol := op(t, c)
	if sol.Voltage(Ground) != 0 || sol.Voltage("nope") != 0 {
		t.Fatal("ground/unknown probe should read 0")
	}
	if sol.BranchCurrent("R1") != 0 {
		t.Fatal("non-branch element current should read 0")
	}
}

func TestDiodeResistorOperatingPoint(t *testing.T) {
	// 5V through 1k into a diode: V_D ≈ 0.6-0.8 V, KCL must hold.
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "in", N: Ground, Wave: DC(5)})
	c.MustAdd(&Resistor{Label: "R1", A: "in", B: "d", Ohms: 1e3})
	c.MustAdd(&Diode{Label: "D1", A: "d", B: Ground, Is: 1e-14})
	sol := op(t, c)
	vd := sol.Voltage("d")
	if vd < 0.5 || vd > 0.9 {
		t.Fatalf("diode drop = %g", vd)
	}
	iR := (5 - vd) / 1e3
	vt := 8.617333262e-5 * 300
	iD := 1e-14 * (math.Exp(vd/vt) - 1)
	if math.Abs(iR-iD)/iR > 1e-6 {
		t.Fatalf("KCL violated: iR=%g iD=%g", iR, iD)
	}
}

func TestDiodeReverseLeakage(t *testing.T) {
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "in", N: Ground, Wave: DC(-5)})
	c.MustAdd(&Resistor{Label: "R1", A: "in", B: "d", Ohms: 1e3})
	c.MustAdd(&Diode{Label: "D1", A: "d", B: Ground, Is: 1e-14})
	sol := op(t, c)
	// Reverse biased: nearly the full -5 V appears across the diode.
	if vd := sol.Voltage("d"); vd > -4.9 {
		t.Fatalf("reverse diode node = %g", vd)
	}
}

func TestEmptyCircuit(t *testing.T) {
	sol, err := New().OperatingPoint(DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Voltage("x") != 0 {
		t.Fatal("empty circuit probe")
	}
}

func TestRCTransientBackwardEuler(t *testing.T) {
	// RC charging: v(t) = V·(1 - e^(-t/RC)), RC = 1 µs.
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "in", N: Ground, Wave: DC(1)})
	c.MustAdd(&Resistor{Label: "R1", A: "in", B: "out", Ohms: 1e3})
	cap := &Capacitor{Label: "C1", A: "out", B: Ground, Farads: 1e-9}
	c.MustAdd(cap)
	// Start the capacitor discharged: hold the source at 0 for t<=0 by
	// using a pulse that rises immediately after t=0.
	c.Element("V1").(*VSource).Wave = Pulse{V1: 0, V2: 1, Delay: 0, Rise: 1e-9, Width: 1, Period: 0}
	sols, err := c.Transient(context.Background(), TranOptions{Step: 2e-8, Stop: 5e-6})
	if err != nil {
		t.Fatal(err)
	}
	// After 5 time constants the output is within 1% of final value.
	last := sols[len(sols)-1].Voltage("out")
	if last < 0.97 || last > 1.001 {
		t.Fatalf("v(5τ) = %g", last)
	}
	// At t ≈ RC the response is ≈ 63%: check within BE's first-order
	// error for this step count.
	var atTau float64
	for _, s := range sols {
		if s.Time >= 1e-6 {
			atTau = s.Voltage("out")
			break
		}
	}
	if math.Abs(atTau-0.632) > 0.03 {
		t.Fatalf("v(τ) = %g, want ≈0.632", atTau)
	}
}

func TestRCTransientTrapezoidalMoreAccurate(t *testing.T) {
	// Trapezoidal's second-order advantage shows on smooth stimuli:
	// drive an RC with a sine and compare both rules at a coarse step
	// against a fine-step reference.
	run := func(step float64, trap bool) float64 {
		c := New()
		c.MustAdd(&VSource{Label: "V1", P: "in", N: Ground,
			Wave: Sin{Amplitude: 1, Freq: 1e5}})
		c.MustAdd(&Resistor{Label: "R1", A: "in", B: "out", Ohms: 1e3})
		c.MustAdd(&Capacitor{Label: "C1", A: "out", B: Ground, Farads: 1e-9})
		sols, err := c.Transient(context.Background(), TranOptions{Step: step, Stop: 2.0001e-5, Trapezoidal: trap})
		if err != nil {
			t.Fatal(err)
		}
		return sols[len(sols)-1].Voltage("out")
	}
	ref := run(2.5e-8, true)
	errBE := math.Abs(run(4e-7, false) - ref)
	errTR := math.Abs(run(4e-7, true) - ref)
	if errTR >= errBE {
		t.Fatalf("trapezoidal error %g not below BE error %g", errTR, errBE)
	}
}

func TestWaveforms(t *testing.T) {
	p := Pulse{V1: 0, V2: 1, Delay: 1, Rise: 1, Width: 2, Fall: 1, Period: 10}
	cases := []struct{ t, want float64 }{
		{0, 0}, {1.5, 0.5}, {2.5, 1}, {4.5, 0.5}, {6, 0}, {11.5, 0.5},
	}
	for _, c := range cases {
		if got := p.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Pulse.At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	s := Sin{Offset: 1, Amplitude: 2, Freq: 1, Delay: 0.5}
	if s.At(0.2) != 1 {
		t.Error("Sin before delay should hold offset")
	}
	if got := s.At(0.75); math.Abs(got-3) > 1e-9 {
		t.Errorf("Sin quarter wave = %g", got)
	}
	if DC(3).At(99) != 3 {
		t.Error("DC waveform")
	}
}

func newFastModel(t *testing.T) *core.Model {
	t.Helper()
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCNTFETCommonSourceOperatingPoint(t *testing.T) {
	model := newFastModel(t)
	c := New()
	c.MustAdd(&VSource{Label: "VDD", P: "vdd", N: Ground, Wave: DC(0.6)})
	c.MustAdd(&VSource{Label: "VG", P: "g", N: Ground, Wave: DC(0.5)})
	c.MustAdd(&Resistor{Label: "RL", A: "vdd", B: "d", Ohms: 20e3})
	fet := &CNTFET{Label: "M1", D: "d", G: "g", S: Ground, Model: model}
	c.MustAdd(fet)
	sol := op(t, c)
	vd := sol.Voltage("d")
	if vd <= 0 || vd >= 0.6 {
		t.Fatalf("drain = %g, want inside supply range", vd)
	}
	// KCL: resistor current equals device current.
	iR := (0.6 - vd) / 20e3
	iD, err := fet.DrainCurrent(sol)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iR-iD)/iR > 1e-5 {
		t.Fatalf("KCL: iR=%g iD=%g", iR, iD)
	}
}

func TestCNTFETResistiveInverterVTC(t *testing.T) {
	model := newFastModel(t)
	c := New()
	c.MustAdd(&VSource{Label: "VDD", P: "vdd", N: Ground, Wave: DC(0.6)})
	c.MustAdd(&VSource{Label: "VIN", P: "in", N: Ground, Wave: DC(0)})
	c.MustAdd(&Resistor{Label: "RL", A: "vdd", B: "out", Ohms: 200e3})
	c.MustAdd(&CNTFET{Label: "M1", D: "out", G: "in", S: Ground, Model: model})
	pts, err := c.DCSweep("VIN", 0, 0.6, 0.05, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := pts[0].Solution.Voltage("out")
	last := pts[len(pts)-1].Solution.Voltage("out")
	if first < 0.55 {
		t.Fatalf("VTC high level = %g", first)
	}
	if last > 0.25 {
		t.Fatalf("VTC low level = %g", last)
	}
	// Monotone falling.
	for i := 1; i < len(pts); i++ {
		if pts[i].Solution.Voltage("out") > pts[i-1].Solution.Voltage("out")+1e-6 {
			t.Fatalf("VTC not monotone at %g", pts[i].Value)
		}
	}
}

func TestComplementaryCNTFETInverter(t *testing.T) {
	model := newFastModel(t)
	c := New()
	c.MustAdd(&VSource{Label: "VDD", P: "vdd", N: Ground, Wave: DC(0.6)})
	c.MustAdd(&VSource{Label: "VIN", P: "in", N: Ground, Wave: DC(0)})
	c.MustAdd(&CNTFET{Label: "MP", D: "out", G: "in", S: "vdd", Model: model, Pol: PType})
	c.MustAdd(&CNTFET{Label: "MN", D: "out", G: "in", S: Ground, Model: model})
	pts, err := c.DCSweep("VIN", 0, 0.6, 0.05, DCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	hi := pts[0].Solution.Voltage("out")
	lo := pts[len(pts)-1].Solution.Voltage("out")
	if hi < 0.55 || lo > 0.05 {
		t.Fatalf("CMOS-style inverter rails: hi=%g lo=%g", hi, lo)
	}
	// The switching threshold of a symmetric inverter sits near VDD/2.
	var vm float64
	for i := 1; i < len(pts); i++ {
		a := pts[i-1].Solution.Voltage("out")
		b := pts[i].Solution.Voltage("out")
		mid := 0.3
		if (a-mid)*(b-mid) <= 0 {
			vm = pts[i].Value
			break
		}
	}
	if vm < 0.2 || vm > 0.4 {
		t.Fatalf("switching threshold at %g", vm)
	}
}

func TestDCSweepErrors(t *testing.T) {
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "a", N: Ground, Wave: DC(1)})
	c.MustAdd(&Resistor{Label: "R1", A: "a", B: Ground, Ohms: 1})
	if _, err := c.DCSweep("nope", 0, 1, 0.1, DCOptions{}); err == nil {
		t.Fatal("missing source accepted")
	}
	if _, err := c.DCSweep("R1", 0, 1, 0.1, DCOptions{}); err == nil {
		t.Fatal("non-source element accepted")
	}
	if _, err := c.DCSweep("V1", 0, 1, -0.1, DCOptions{}); err == nil {
		t.Fatal("bad step accepted")
	}
}

func TestDCSweepRestoresWave(t *testing.T) {
	c := New()
	v := &VSource{Label: "V1", P: "a", N: Ground, Wave: DC(42)}
	c.MustAdd(v)
	c.MustAdd(&Resistor{Label: "R1", A: "a", B: Ground, Ohms: 1})
	if _, err := c.DCSweep("V1", 0, 1, 0.5, DCOptions{}); err != nil {
		t.Fatal(err)
	}
	if v.Wave.At(0) != 42 {
		t.Fatal("sweep clobbered the source waveform")
	}
}

func TestTransientValidation(t *testing.T) {
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "a", N: Ground, Wave: DC(1)})
	c.MustAdd(&Resistor{Label: "R1", A: "a", B: Ground, Ohms: 1})
	if _, err := c.Transient(context.Background(), TranOptions{Step: 0, Stop: 1}); err == nil {
		t.Fatal("zero step accepted")
	}
	if _, err := c.Transient(context.Background(), TranOptions{Step: 1, Stop: 0.5}); err == nil {
		t.Fatal("stop before first step accepted")
	}
}

func TestPolarityString(t *testing.T) {
	if NType.String() != "n" || PType.String() != "p" {
		t.Fatal("polarity names")
	}
}

// numericOnly wraps a model to hide its analytic Conductances method,
// forcing the element onto the finite-difference path.
type numericOnly struct{ m device.Solver }

func (n numericOnly) IDS(b fettoy.Bias) (float64, error) { return n.m.IDS(b) }

func TestCNTFETAnalyticMatchesNumericStampPath(t *testing.T) {
	model := newFastModel(t)
	cases := []struct {
		name       string
		pol        Polarity
		vd, vg, vs float64
	}{
		{"n forward", NType, 0.4, 0.5, 0},
		{"n reversed", NType, -0.3, 0.5, 0},
		{"p forward", PType, 0.1, 0, 0.6},  // p device: source at vdd
		{"p reversed", PType, 0.6, 0, 0.4}, // drain above source
		{"n lifted source", NType, 0.5, 0.6, 0.2},
	}
	for _, c := range cases {
		analytic := &CNTFET{Label: "MA", D: "d", G: "g", S: "s", Model: model, Pol: c.pol}
		numeric := &CNTFET{Label: "MN", D: "d", G: "g", S: "s", Model: numericOnly{model}, Pol: c.pol}
		ia, gma, gdsa, err := analytic.conductances(c.vd, c.vg, c.vs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		in, gmn, gdsn, err := numeric.conductances(c.vd, c.vg, c.vs)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Abs(ia-in) > 1e-12+1e-9*math.Abs(in) {
			t.Fatalf("%s: current %g vs %g", c.name, ia, in)
		}
		// Forward differencing is only first-order accurate; compare
		// loosely and on scale.
		scale := math.Abs(gmn) + math.Abs(gdsn) + 1e-9
		if math.Abs(gma-gmn) > 0.02*scale {
			t.Fatalf("%s: gm analytic %g vs numeric %g", c.name, gma, gmn)
		}
		if math.Abs(gdsa-gdsn) > 0.02*scale {
			t.Fatalf("%s: gds analytic %g vs numeric %g", c.name, gdsa, gdsn)
		}
	}
}

func TestCNTFETNumericFallbackStillConverges(t *testing.T) {
	model := newFastModel(t)
	c := New()
	c.MustAdd(&VSource{Label: "VDD", P: "vdd", N: Ground, Wave: DC(0.6)})
	c.MustAdd(&VSource{Label: "VG", P: "g", N: Ground, Wave: DC(0.5)})
	c.MustAdd(&Resistor{Label: "RL", A: "vdd", B: "d", Ohms: 20e3})
	c.MustAdd(&CNTFET{Label: "M1", D: "d", G: "g", S: Ground, Model: numericOnly{model}})
	sol := op(t, c)
	if vd := sol.Voltage("d"); vd <= 0 || vd >= 0.6 {
		t.Fatalf("drain = %g", vd)
	}
}

func TestVCCSStamp(t *testing.T) {
	// 1 V across the control pair, gm = 2 mS, into a 1k load:
	// i = 2 mA leaves P... the SPICE convention drives N positive.
	c := New()
	c.MustAdd(&VSource{Label: "VC", P: "c", N: Ground, Wave: DC(1)})
	c.MustAdd(&Resistor{Label: "RC", A: "c", B: Ground, Ohms: 1e6})
	c.MustAdd(&VCCS{Label: "G1", P: "out", N: Ground, CP: "c", CN: Ground, Gain: 2e-3})
	c.MustAdd(&Resistor{Label: "RL", A: "out", B: Ground, Ohms: 1e3})
	sol := op(t, c)
	if v := sol.Voltage("out"); math.Abs(v+2) > 1e-9 {
		t.Fatalf("VCCS output = %g, want -2 (current leaves P)", v)
	}
}

func TestVCVSStamp(t *testing.T) {
	c := New()
	c.MustAdd(&VSource{Label: "VC", P: "c", N: Ground, Wave: DC(0.25)})
	c.MustAdd(&Resistor{Label: "RC", A: "c", B: Ground, Ohms: 1e6})
	c.MustAdd(&VCVS{Label: "E1", P: "out", N: Ground, CP: "c", CN: Ground, Gain: 8})
	c.MustAdd(&Resistor{Label: "RL", A: "out", B: Ground, Ohms: 50})
	sol := op(t, c)
	if v := sol.Voltage("out"); math.Abs(v-2) > 1e-9 {
		t.Fatalf("VCVS output = %g, want 2", v)
	}
	// The load draws 40 mA through the VCVS branch.
	if i := sol.BranchCurrent("E1"); math.Abs(i+40e-3) > 1e-9 {
		t.Fatalf("VCVS branch current = %g", i)
	}
}

func TestCNTRingOscillator(t *testing.T) {
	// Three complementary CNT inverters in a ring with load caps: the
	// canonical oscillation test. This exercises hundreds of transient
	// Newton solves through the analytic-conductance path.
	model := newFastModel(t)
	c := New()
	c.MustAdd(&VSource{Label: "VDD", P: "vdd", N: Ground, Wave: DC(0.6)})
	nodes := []string{"a", "b", "cc"}
	for i := range nodes {
		in := nodes[i]
		out := nodes[(i+1)%3]
		c.MustAdd(&CNTFET{Label: "MP" + in, D: out, G: in, S: "vdd", Model: model, Pol: PType})
		c.MustAdd(&CNTFET{Label: "MN" + in, D: out, G: in, S: Ground, Model: model})
		c.MustAdd(&Capacitor{Label: "CL" + in, A: out, B: Ground, Farads: 2e-15})
	}
	// Break the symmetry so the DC point is not the metastable middle:
	// a small current kick on one node.
	c.MustAdd(&ISource{Label: "IK", P: "a", N: Ground,
		Wave: Pulse{V1: 0, V2: 2e-6, Delay: 0, Rise: 1e-12, Width: 50e-12, Fall: 1e-12, Period: 1}})
	sols, err := c.Transient(context.Background(), TranOptions{Step: 5e-12, Stop: 3e-9, DC: DCOptions{MaxIter: 200}})
	if err != nil {
		t.Fatal(err)
	}
	// Oscillation: node "a" must cross VDD/2 several times after the
	// kick dies out.
	crossings := 0
	mid := 0.3
	for i := 1; i < len(sols); i++ {
		if sols[i].Time < 0.2e-9 {
			continue
		}
		v0, v1 := sols[i-1].Voltage("a"), sols[i].Voltage("a")
		if (v0-mid)*(v1-mid) < 0 {
			crossings++
		}
	}
	if crossings < 4 {
		t.Fatalf("ring oscillator: only %d mid-rail crossings", crossings)
	}
}

func TestCNTNANDGate(t *testing.T) {
	// Static CMOS-style NAND from complementary CNTFETs: two p devices
	// in parallel to VDD, two n devices in series to ground.
	model := newFastModel(t)
	build := func(va, vb float64) float64 {
		c := New()
		c.MustAdd(&VSource{Label: "VDD", P: "vdd", N: Ground, Wave: DC(0.6)})
		c.MustAdd(&VSource{Label: "VA", P: "a", N: Ground, Wave: DC(va)})
		c.MustAdd(&VSource{Label: "VB", P: "b", N: Ground, Wave: DC(vb)})
		c.MustAdd(&CNTFET{Label: "MPA", D: "out", G: "a", S: "vdd", Model: model, Pol: PType})
		c.MustAdd(&CNTFET{Label: "MPB", D: "out", G: "b", S: "vdd", Model: model, Pol: PType})
		c.MustAdd(&CNTFET{Label: "MNA", D: "out", G: "a", S: "mid", Model: model})
		c.MustAdd(&CNTFET{Label: "MNB", D: "mid", G: "b", S: Ground, Model: model})
		sol, err := c.OperatingPoint(DCOptions{MaxIter: 300})
		if err != nil {
			t.Fatalf("va=%g vb=%g: %v", va, vb, err)
		}
		return sol.Voltage("out")
	}
	hi, lo := 0.6, 0.0
	truth := []struct {
		a, b     float64
		wantHigh bool
	}{
		{lo, lo, true}, {lo, hi, true}, {hi, lo, true}, {hi, hi, false},
	}
	for _, tt := range truth {
		out := build(tt.a, tt.b)
		if tt.wantHigh && out < 0.5 {
			t.Fatalf("NAND(%g,%g) = %g, want high", tt.a, tt.b, out)
		}
		if !tt.wantHigh && out > 0.1 {
			t.Fatalf("NAND(%g,%g) = %g, want low", tt.a, tt.b, out)
		}
	}
}

// TestTransientStopsOnCancel: both transient loops check their context
// every cancelEvery steps, so a canceled run stops at the first check
// with the context's error and the solutions computed so far, instead
// of running to Stop (here 1M fixed steps).
func TestTransientStopsOnCancel(t *testing.T) {
	build := func() *Circuit {
		c := New()
		c.MustAdd(&VSource{Label: "V1", P: "in", N: Ground,
			Wave: Pulse{V1: 0, V2: 1, Delay: 1e-7, Rise: 1e-9, Width: 1}})
		c.MustAdd(&Resistor{Label: "R1", A: "in", B: "out", Ohms: 1e3})
		c.MustAdd(&Capacitor{Label: "C1", A: "out", B: Ground, Farads: 1e-9})
		return c
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sols, err := build().Transient(ctx, TranOptions{Step: 5e-12, Stop: 5e-6})
	if !errors.Is(err, context.Canceled) || len(sols) != cancelEvery {
		t.Fatalf("canceled fixed-step run: %d solutions, err %v; want %d and context.Canceled", len(sols), err, cancelEvery)
	}
	sols, err = build().TransientAdaptive(ctx, TranAdaptiveOptions{Stop: 5e-6, MaxStep: 1e-11, MinStep: 1e-12})
	if !errors.Is(err, context.Canceled) || len(sols) > cancelEvery {
		t.Fatalf("canceled adaptive run: %d solutions, err %v; want at most %d and context.Canceled", len(sols), err, cancelEvery)
	}
}

func TestTransientAdaptiveMatchesFixedStep(t *testing.T) {
	build := func() *Circuit {
		c := New()
		c.MustAdd(&VSource{Label: "V1", P: "in", N: Ground,
			Wave: Pulse{V1: 0, V2: 1, Delay: 1e-7, Rise: 1e-9, Width: 1}})
		c.MustAdd(&Resistor{Label: "R1", A: "in", B: "out", Ohms: 1e3})
		c.MustAdd(&Capacitor{Label: "C1", A: "out", B: Ground, Farads: 1e-9})
		return c
	}
	adaptive, err := build().TransientAdaptive(context.Background(), TranAdaptiveOptions{Stop: 5e-6, Tol: 1e-4})
	if err != nil {
		t.Fatal(err)
	}
	fixed, err := build().Transient(context.Background(), TranOptions{Step: 5e-9, Stop: 5e-6})
	if err != nil {
		t.Fatal(err)
	}
	// Compare final values.
	va := adaptive[len(adaptive)-1].Voltage("out")
	vf := fixed[len(fixed)-1].Voltage("out")
	if math.Abs(va-vf) > 5e-3 {
		t.Fatalf("adaptive %g vs fixed %g", va, vf)
	}
	// Adaptive must use far fewer accepted steps than the fine fixed
	// grid while still resolving the edge.
	if len(adaptive) > len(fixed)/3 {
		t.Fatalf("adaptive took %d steps vs fixed %d", len(adaptive), len(fixed))
	}
	// Steps must concentrate around the stimulus edge at 1e-7: the
	// smallest accepted interval should be near the edge.
	minDt, minAt := math.Inf(1), 0.0
	for i := 1; i < len(adaptive); i++ {
		dt := adaptive[i].Time - adaptive[i-1].Time
		if dt < minDt {
			minDt, minAt = dt, adaptive[i].Time
		}
	}
	if minAt < 0.5e-7 || minAt > 5e-7 {
		t.Fatalf("smallest step (%g) at t=%g, want near the edge", minDt, minAt)
	}
}

func TestTransientAdaptiveValidation(t *testing.T) {
	c := New()
	c.MustAdd(&VSource{Label: "V1", P: "a", N: Ground, Wave: DC(1)})
	c.MustAdd(&Resistor{Label: "R1", A: "a", B: Ground, Ohms: 1})
	if _, err := c.TransientAdaptive(context.Background(), TranAdaptiveOptions{Stop: 0}); err == nil {
		t.Fatal("zero stop accepted")
	}
	if _, err := c.TransientAdaptive(context.Background(), TranAdaptiveOptions{Stop: 1, MinStep: 1, MaxStep: 0.1}); err == nil {
		t.Fatal("inverted step bounds accepted")
	}
}

func TestTransientAdaptiveCNTInverter(t *testing.T) {
	model := newFastModel(t)
	c := New()
	c.MustAdd(&VSource{Label: "VDD", P: "vdd", N: Ground, Wave: DC(0.6)})
	c.MustAdd(&VSource{Label: "VIN", P: "in", N: Ground,
		Wave: Pulse{V1: 0, V2: 0.6, Delay: 0.5e-9, Rise: 10e-12, Width: 2e-9, Fall: 10e-12, Period: 1}})
	c.MustAdd(&CNTFET{Label: "MP", D: "out", G: "in", S: "vdd", Model: model, Pol: PType})
	c.MustAdd(&CNTFET{Label: "MN", D: "out", G: "in", S: Ground, Model: model})
	c.MustAdd(&Capacitor{Label: "CL", A: "out", B: Ground, Farads: 10e-15})
	sols, err := c.TransientAdaptive(context.Background(), TranAdaptiveOptions{Stop: 2e-9, Tol: 2e-3})
	if err != nil {
		t.Fatal(err)
	}
	last := sols[len(sols)-1].Voltage("out")
	if last > 0.1 {
		t.Fatalf("inverter did not switch low: %g", last)
	}
}
