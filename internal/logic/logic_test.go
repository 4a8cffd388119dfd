package logic

import (
	"context"
	"fmt"
	"math"
	"testing"

	"cntfet/internal/circuit"
	"cntfet/internal/core"
	"cntfet/internal/fettoy"
)

var sharedModel *core.Model

func model(t *testing.T) *core.Model {
	t.Helper()
	if sharedModel != nil {
		return sharedModel
	}
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	m, err := core.Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	sharedModel = m
	return m
}

func lib(t *testing.T) *Library {
	return &Library{Model: model(t), VDD: 0.6, LoadCap: 2e-15}
}

func TestLibraryValidate(t *testing.T) {
	if err := (&Library{}).Validate(); err == nil {
		t.Fatal("empty library accepted")
	}
	if err := (&Library{Model: model(t), VDD: -1}).Validate(); err == nil {
		t.Fatal("negative VDD accepted")
	}
	if err := (&Library{Model: model(t), VDD: 0.6, LoadCap: -1}).Validate(); err == nil {
		t.Fatal("negative load accepted")
	}
	if err := lib(t).Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestInverterVTCMetrics(t *testing.T) {
	l := lib(t)
	c := circuit.New()
	if err := l.Supply(c, "VDD"); err != nil {
		t.Fatal(err)
	}
	c.MustAdd(&circuit.VSource{Label: "VIN", P: "in", N: circuit.Ground, Wave: circuit.DC(0)})
	if err := l.Inverter(c, "inv", "in", "out"); err != nil {
		t.Fatal(err)
	}
	m, err := MeasureVTC(c, "VIN", "out", l.VDD, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if m.VOH < 0.57 || m.VOL > 0.03 {
		t.Fatalf("rails: VOH=%g VOL=%g", m.VOH, m.VOL)
	}
	// Symmetric complementary pair: VM near VDD/2.
	if math.Abs(m.VM-0.3) > 0.06 {
		t.Fatalf("VM = %g", m.VM)
	}
	if m.Gain < 5 {
		t.Fatalf("gain = %g", m.Gain)
	}
	if m.NML <= 0 || m.NMH <= 0 {
		t.Fatalf("noise margins NML=%g NMH=%g", m.NML, m.NMH)
	}
	if m.NML+m.NMH > l.VDD {
		t.Fatalf("margins exceed the supply: %g + %g", m.NML, m.NMH)
	}
}

func gateTruth(t *testing.T, build func(l *Library, c *circuit.Circuit) error, va, vb float64) float64 {
	t.Helper()
	l := lib(t)
	c := circuit.New()
	if err := l.Supply(c, "VDD"); err != nil {
		t.Fatal(err)
	}
	c.MustAdd(&circuit.VSource{Label: "VA", P: "a", N: circuit.Ground, Wave: circuit.DC(va)})
	c.MustAdd(&circuit.VSource{Label: "VB", P: "b", N: circuit.Ground, Wave: circuit.DC(vb)})
	if err := build(l, c); err != nil {
		t.Fatal(err)
	}
	sol, err := c.OperatingPoint(circuit.DCOptions{MaxIter: 300})
	if err != nil {
		t.Fatal(err)
	}
	return sol.Voltage("out")
}

func TestNAND2TruthTable(t *testing.T) {
	build := func(l *Library, c *circuit.Circuit) error { return l.NAND2(c, "g", "a", "b", "out") }
	cases := []struct {
		a, b float64
		high bool
	}{
		{0, 0, true}, {0, 0.6, true}, {0.6, 0, true}, {0.6, 0.6, false},
	}
	for _, tc := range cases {
		out := gateTruth(t, build, tc.a, tc.b)
		if tc.high && out < 0.5 || !tc.high && out > 0.1 {
			t.Fatalf("NAND(%g,%g) = %g", tc.a, tc.b, out)
		}
	}
}

func TestNOR2TruthTable(t *testing.T) {
	build := func(l *Library, c *circuit.Circuit) error { return l.NOR2(c, "g", "a", "b", "out") }
	cases := []struct {
		a, b float64
		high bool
	}{
		{0, 0, true}, {0, 0.6, false}, {0.6, 0, false}, {0.6, 0.6, false},
	}
	for _, tc := range cases {
		out := gateTruth(t, build, tc.a, tc.b)
		if tc.high && out < 0.5 || !tc.high && out > 0.1 {
			t.Fatalf("NOR(%g,%g) = %g", tc.a, tc.b, out)
		}
	}
}

func TestChainDelayAccumulates(t *testing.T) {
	// A 4-stage chain: the signal at the final output lags the first
	// stage output; per-stage delay is positive and finite.
	l := lib(t)
	c := circuit.New()
	if err := l.Supply(c, "VDD"); err != nil {
		t.Fatal(err)
	}
	c.MustAdd(&circuit.VSource{Label: "VIN", P: "in", N: circuit.Ground,
		Wave: circuit.Pulse{V1: 0, V2: 0.6, Delay: 0, Rise: 10e-12, Width: 3e-9, Fall: 10e-12, Period: 1}})
	outs, err := l.Chain(c, "ch", "in", 4)
	if err != nil {
		t.Fatal(err)
	}
	sols, err := c.Transient(context.Background(), circuit.TranOptions{Step: 5e-12, Stop: 2.5e-9})
	if err != nil {
		t.Fatal(err)
	}
	// Even stage count: output follows input polarity.
	tpHL1, _ := PropagationDelay(sols, "in", outs[0], l.VDD)
	tp4 := delayToRise(t, sols, "in", outs[3], l.VDD)
	if tpHL1 <= 0 {
		t.Fatalf("first-stage delay %g", tpHL1)
	}
	if tp4 < 2.5*tpHL1 {
		t.Fatalf("4-stage delay %g not accumulating over stage delay %g", tp4, tpHL1)
	}
}

// delayToRise measures input-rise to output-rise (for even chains).
func delayToRise(t *testing.T, sols []*circuit.Solution, in, out string, vdd float64) float64 {
	t.Helper()
	ts := make([]float64, len(sols))
	vi := make([]float64, len(sols))
	vo := make([]float64, len(sols))
	for i, s := range sols {
		ts[i] = s.Time
		vi[i] = s.Voltage(in)
		vo[i] = s.Voltage(out)
	}
	tin := crossing(ts, vi, vdd/2, true)
	tout := crossing(ts, vo, vdd/2, true)
	return tout - tin
}

func TestChainValidation(t *testing.T) {
	l := lib(t)
	c := circuit.New()
	if err := l.Supply(c, "VDD"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Chain(c, "ch", "in", 0); err == nil {
		t.Fatal("zero-stage chain accepted")
	}
}

func TestRingOscillatorFrequencyScalesWithStages(t *testing.T) {
	run := func(stages int) float64 {
		l := lib(t)
		c := circuit.New()
		if err := l.Supply(c, "VDD"); err != nil {
			t.Fatal(err)
		}
		nodes, err := l.RingOscillator(c, "ring", stages)
		if err != nil {
			t.Fatal(err)
		}
		sols, err := c.Transient(context.Background(), circuit.TranOptions{Step: 5e-12, Stop: 6e-9, DC: circuit.DCOptions{MaxIter: 300}})
		if err != nil {
			t.Fatal(err)
		}
		f, err := OscillationFrequency(sols, nodes[0], l.VDD, 1e-9)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	f3 := run(3)
	f5 := run(5)
	if f3 <= 0 || f5 <= 0 {
		t.Fatalf("frequencies %g %g", f3, f5)
	}
	// f = 1/(2·N·tp): the 5-stage ring must be slower, roughly by 3/5.
	ratio := f5 / f3
	if ratio > 0.85 || ratio < 0.35 {
		t.Fatalf("f5/f3 = %g, want near 0.6", ratio)
	}
}

func TestRingOscillatorValidation(t *testing.T) {
	l := lib(t)
	c := circuit.New()
	if err := l.Supply(c, "VDD"); err != nil {
		t.Fatal(err)
	}
	if _, err := l.RingOscillator(c, "r", 4); err == nil {
		t.Fatal("even ring accepted")
	}
	if _, err := l.RingOscillator(c, "r", 1); err == nil {
		t.Fatal("single-stage ring accepted")
	}
}

func TestOscillationFrequencyNeedsCrossings(t *testing.T) {
	// A DC circuit never crosses: the estimator must say so.
	l := lib(t)
	c := circuit.New()
	if err := l.Supply(c, "VDD"); err != nil {
		t.Fatal(err)
	}
	c.MustAdd(&circuit.VSource{Label: "VIN", P: "in", N: circuit.Ground, Wave: circuit.DC(0)})
	if err := l.Inverter(c, "inv", "in", "out"); err != nil {
		t.Fatal(err)
	}
	sols, err := c.Transient(context.Background(), circuit.TranOptions{Step: 1e-11, Stop: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OscillationFrequency(sols, "out", l.VDD, 0); err == nil {
		t.Fatal("static node reported as oscillating")
	}
}

func TestSwitchingEnergyScale(t *testing.T) {
	// One full output transition pair of an inverter with load C at
	// supply V draws roughly C·VDD² from the rail (plus short-circuit
	// and device charging overhead): check the order of magnitude.
	l := lib(t)
	c := circuit.New()
	if err := l.Supply(c, "VDD"); err != nil {
		t.Fatal(err)
	}
	c.MustAdd(&circuit.VSource{Label: "VIN", P: "in", N: circuit.Ground,
		Wave: circuit.Pulse{V1: 0, V2: 0.6, Delay: 0.2e-9, Rise: 10e-12, Width: 1.5e-9, Fall: 10e-12, Period: 1}})
	if err := l.Inverter(c, "inv", "in", "out"); err != nil {
		t.Fatal(err)
	}
	sols, err := c.Transient(context.Background(), circuit.TranOptions{Step: 5e-12, Stop: 4e-9})
	if err != nil {
		t.Fatal(err)
	}
	e := SwitchingEnergy(sols, "VDD", l.VDD)
	cv2 := l.LoadCap * l.VDD * l.VDD
	if e < 0.5*cv2 || e > 20*cv2 {
		t.Fatalf("switching energy %g J vs CV² %g J", e, cv2)
	}
	if SwitchingEnergy(nil, "VDD", 0.6) != 0 {
		t.Fatal("degenerate input")
	}
}

func TestXOR2TruthTable(t *testing.T) {
	build := func(l *Library, c *circuit.Circuit) error { return l.XOR2(c, "g", "a", "b", "out") }
	cases := []struct {
		a, b float64
		high bool
	}{
		{0, 0, false}, {0, 0.6, true}, {0.6, 0, true}, {0.6, 0.6, false},
	}
	for _, tc := range cases {
		out := gateTruth(t, build, tc.a, tc.b)
		if tc.high && out < 0.5 || !tc.high && out > 0.1 {
			t.Fatalf("XOR(%g,%g) = %g", tc.a, tc.b, out)
		}
	}
}

func TestFullAdderTruthTable(t *testing.T) {
	// 36 transistors per operating point, 8 input combinations: the
	// "complex circuits from large numbers of CNT devices" workload.
	l := lib(t)
	l.LoadCap = 0 // pure DC study
	hi, lo := 0.6, 0.0
	level := func(x bool) float64 {
		if x {
			return hi
		}
		return lo
	}
	for mask := 0; mask < 8; mask++ {
		a, b, cin := mask&1 != 0, mask&2 != 0, mask&4 != 0
		c := circuit.New()
		if err := l.Supply(c, "VDD"); err != nil {
			t.Fatal(err)
		}
		c.MustAdd(&circuit.VSource{Label: "VA", P: "a", N: circuit.Ground, Wave: circuit.DC(level(a))})
		c.MustAdd(&circuit.VSource{Label: "VB", P: "b", N: circuit.Ground, Wave: circuit.DC(level(b))})
		c.MustAdd(&circuit.VSource{Label: "VC", P: "cin", N: circuit.Ground, Wave: circuit.DC(level(cin))})
		if err := l.FullAdder(c, "fa", "a", "b", "cin", "sum", "cout"); err != nil {
			t.Fatal(err)
		}
		sol, err := c.OperatingPoint(circuit.DCOptions{MaxIter: 400})
		if err != nil {
			t.Fatalf("inputs %v%v%v: %v", a, b, cin, err)
		}
		n := 0
		if a {
			n++
		}
		if b {
			n++
		}
		if cin {
			n++
		}
		wantSum := n%2 == 1
		wantCout := n >= 2
		vs, vc := sol.Voltage("sum"), sol.Voltage("cout")
		if wantSum && vs < 0.45 || !wantSum && vs > 0.15 {
			t.Fatalf("inputs %v%v%v: sum = %g, want high=%v", a, b, cin, vs, wantSum)
		}
		if wantCout && vc < 0.45 || !wantCout && vc > 0.15 {
			t.Fatalf("inputs %v%v%v: cout = %g, want high=%v", a, b, cin, vc, wantCout)
		}
	}
}

func TestRippleCarryAdder4Bit(t *testing.T) {
	// A 4-bit adder: 176 transistors per operating point. Check a few
	// arithmetic identities end to end.
	l := lib(t)
	l.LoadCap = 0
	add := func(x, y, carryIn int) (int, int) {
		c := circuit.New()
		if err := l.Supply(c, "VDD"); err != nil {
			t.Fatal(err)
		}
		var aN, bN []string
		for i := 0; i < 4; i++ {
			aN = append(aN, fmt.Sprintf("a%d", i))
			bN = append(bN, fmt.Sprintf("b%d", i))
			va, vb := 0.0, 0.0
			if x>>i&1 == 1 {
				va = l.VDD
			}
			if y>>i&1 == 1 {
				vb = l.VDD
			}
			c.MustAdd(&circuit.VSource{Label: "VA" + aN[i], P: aN[i], N: circuit.Ground, Wave: circuit.DC(va)})
			c.MustAdd(&circuit.VSource{Label: "VB" + bN[i], P: bN[i], N: circuit.Ground, Wave: circuit.DC(vb)})
		}
		vc := 0.0
		if carryIn == 1 {
			vc = l.VDD
		}
		c.MustAdd(&circuit.VSource{Label: "VCIN", P: "cin", N: circuit.Ground, Wave: circuit.DC(vc)})
		sum, cout, err := l.RippleCarryAdder(c, "add", aN, bN, "cin")
		if err != nil {
			t.Fatal(err)
		}
		sol, err := c.OperatingPoint(circuit.DCOptions{MaxIter: 400})
		if err != nil {
			t.Fatalf("%d+%d+%d: %v", x, y, carryIn, err)
		}
		got := 0
		for i, s := range sum {
			if sol.Voltage(s) > 0.3 {
				got |= 1 << i
			}
		}
		co := 0
		if sol.Voltage(cout) > 0.3 {
			co = 1
		}
		return got, co
	}
	cases := []struct{ x, y, cin int }{
		{0, 0, 0}, {5, 3, 0}, {15, 1, 0}, {9, 6, 1}, {15, 15, 1},
	}
	for _, tc := range cases {
		got, co := add(tc.x, tc.y, tc.cin)
		want := tc.x + tc.y + tc.cin
		if got != want&0xF || co != want>>4 {
			t.Fatalf("%d+%d+%d: got %d carry %d, want %d carry %d",
				tc.x, tc.y, tc.cin, got, co, want&0xF, want>>4)
		}
	}
}

func TestRippleCarryAdderValidation(t *testing.T) {
	l := lib(t)
	c := circuit.New()
	if err := l.Supply(c, "VDD"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.RippleCarryAdder(c, "x", []string{"a"}, nil, "cin"); err == nil {
		t.Fatal("mismatched widths accepted")
	}
}

func TestSRAMCellHoldsBothStates(t *testing.T) {
	// Keep the library's load capacitance: the storage nodes need
	// state for the transient to latch (with no capacitance every
	// Newton solve re-converges to the metastable midpoint).
	l := lib(t)
	for _, qHigh := range []bool{true, false} {
		c := circuit.New()
		if err := l.Supply(c, "VDD"); err != nil {
			t.Fatal(err)
		}
		// Word line low (cell isolated), bit lines precharged high.
		c.MustAdd(&circuit.VSource{Label: "VWL", P: "wl", N: circuit.Ground, Wave: circuit.DC(0)})
		c.MustAdd(&circuit.VSource{Label: "VBL", P: "bl", N: circuit.Ground, Wave: circuit.DC(0.6)})
		c.MustAdd(&circuit.VSource{Label: "VBLB", P: "blb", N: circuit.Ground, Wave: circuit.DC(0.6)})
		if err := l.SRAMCell(c, "cell", "q", "qb", "bl", "blb", "wl"); err != nil {
			t.Fatal(err)
		}
		// Nudge the cell into the wanted state with a brief current
		// kick, then check it latches after the kick ends.
		target := "q"
		if !qHigh {
			target = "qb"
		}
		c.MustAdd(&circuit.ISource{Label: "IK", P: target, N: circuit.Ground,
			Wave: circuit.Pulse{V1: 0, V2: 5e-6, Rise: 1e-12, Width: 0.3e-9, Fall: 1e-12, Period: 1}})
		sols, err := c.Transient(context.Background(), circuit.TranOptions{Step: 10e-12, Stop: 2e-9, DC: circuit.DCOptions{MaxIter: 300}})
		if err != nil {
			t.Fatal(err)
		}
		last := sols[len(sols)-1]
		vq, vqb := last.Voltage("q"), last.Voltage("qb")
		if qHigh && (vq < 0.5 || vqb > 0.1) {
			t.Fatalf("cell did not hold 1: q=%g qb=%g", vq, vqb)
		}
		if !qHigh && (vqb < 0.5 || vq > 0.1) {
			t.Fatalf("cell did not hold 0: q=%g qb=%g", vq, vqb)
		}
	}
}

func TestHoldSNMPositiveAndBounded(t *testing.T) {
	l := lib(t)
	l.LoadCap = 0
	snm, err := l.HoldSNM(0.01)
	if err != nil {
		t.Fatal(err)
	}
	// A healthy complementary pair at VDD=0.6 V: SNM positive and
	// below VDD/2 by construction.
	if snm < 0.05 || snm > 0.3 {
		t.Fatalf("hold SNM = %g V", snm)
	}
	// Degrading the gate (weak transmission) must not raise the SNM
	// above the ideal value materially; mainly this checks the knob
	// plumbs through the metric.
	dev := fettoy.Default()
	dev.Transmission = 0.4
	ref, err := fettoy.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	weakModel, err := core.Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	weak := &Library{Model: weakModel, VDD: 0.6}
	snmWeak, err := weak.HoldSNM(0.01)
	if err != nil {
		t.Fatal(err)
	}
	if snmWeak <= 0 {
		t.Fatalf("weak-device SNM = %g", snmWeak)
	}
}
