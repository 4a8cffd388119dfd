package netlist

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestParseValueSuffixes(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"10", 10}, {"1k", 1e3}, {"2.5meg", 2.5e6}, {"10p", 1e-11},
		{"1f", 1e-15}, {"3n", 3e-9}, {"4u", 4e-6}, {"5m", 5e-3},
		{"1g", 1e9}, {"2t", 2e12}, {"10pF", 1e-11}, {"-0.32", -0.32},
		{"1e-9", 1e-9}, {"1.5e3", 1500},
	}
	for _, c := range cases {
		got, err := ParseValue(c.in)
		if err != nil {
			t.Fatalf("ParseValue(%q): %v", c.in, err)
		}
		if math.Abs(got-c.want) > 1e-12*math.Abs(c.want) {
			t.Fatalf("ParseValue(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestParseValueErrors(t *testing.T) {
	for _, in := range []string{"", "abc", "1x", "--3"} {
		if _, err := ParseValue(in); err == nil {
			t.Errorf("ParseValue(%q) accepted", in)
		}
	}
}

func TestParseDividerDeckAndRun(t *testing.T) {
	deck, err := Parse(`resistive divider
V1 in 0 10
R1 in out 1k
R2 out 0 3k
.op
.print v(out) i(V1)
.end
`)
	if err != nil {
		t.Fatal(err)
	}
	if deck.Title != "resistive divider" {
		t.Fatalf("title %q", deck.Title)
	}
	var b strings.Builder
	if err := deck.Run(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "7.5") {
		t.Fatalf("divider output missing:\n%s", out)
	}
	if !strings.Contains(out, "-0.0025") {
		t.Fatalf("source current missing:\n%s", out)
	}
}

func TestParseWaveforms(t *testing.T) {
	deck, err := Parse(`waveforms
V1 a 0 PULSE(0 1 0 1n 1n 5n 10n)
V2 b 0 SIN(0 0.5 1meg)
V3 c 0 DC 2
R1 a 0 1k
R2 b 0 1k
R3 c 0 1k
.op
`)
	if err != nil {
		t.Fatal(err)
	}
	if deck.Circuit.Element("V1") == nil || deck.Circuit.Element("V2") == nil {
		t.Fatal("sources missing")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"t\nR1 a 0\n.op\n",                                 // missing value
		"t\nR1 a 0 -5\n.op\n",                              // non-positive value
		"t\nQ1 a 0 1k\n.op\n",                              // unknown element
		"t\n.bogus\n",                                      // unknown card
		"t\n.dc V1 0 1\n",                                  // short .dc
		"t\n.tran 1n\n",                                    // short .tran
		"t\n.print q(x)\n.op\n",                            // bad probe
		"t\nM1 d g s nomodel\n.op\n",                       // undefined model
		"t\n.model m1 njf\n.op\n",                          // non-cnt model
		"t\n.model m1 cnt level=7\n.op\n",                  // bad level
		"t\n.model m1 cnt d=1n\n.model m1 cnt d=1n\n.op\n", // dup model
		"t\nV1 a 0 PULSE(0)\n.op\n",                        // short waveform
		"t\nD1 a 0 bogus\n.op\n",                           // bad diode param
	}
	for i, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d accepted:\n%s", i, src)
		}
	}
}

func TestDeckWithoutAnalysesRejectedAtRun(t *testing.T) {
	deck, err := Parse("t\nR1 a 0 1k\nV1 a 0 1\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := deck.Run(context.Background(), &strings.Builder{}); err == nil {
		t.Fatal("analysis-free deck ran")
	}
}

func TestCNTInverterDeckDCSweep(t *testing.T) {
	deck, err := Parse(`cnt resistive inverter
.model fast cnt level=2 d=1n tox=1.5n kappa=25 ef=-0.32 temp=300 alphag=0.88 alphad=0.035 geometry=coaxial
VDD vdd 0 0.6
VIN in 0 0
RL vdd out 200k
M1 out in 0 fast n
.dc VIN 0 0.6 0.1
.print v(out)
`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := deck.Run(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	// Header line ("DC sweep..."), CSV header, then 7 data rows.
	if len(lines) != 9 {
		t.Fatalf("unexpected output:\n%s", b.String())
	}
	first := strings.Split(lines[2], ",")
	last := strings.Split(lines[8], ",")
	voutHigh, err1 := ParseValue(first[1])
	voutLow, err2 := ParseValue(last[1])
	if err1 != nil || err2 != nil {
		t.Fatalf("parse outputs: %v %v", err1, err2)
	}
	if voutHigh < 0.55 || voutLow > 0.25 {
		t.Fatalf("inverter rails: %g / %g", voutHigh, voutLow)
	}
}

func TestCNTComplementaryInverterTransient(t *testing.T) {
	deck, err := Parse(`cnt cmos inverter transient
.model fast cnt level=2
VDD vdd 0 0.6
VIN in 0 PULSE(0 0.6 0 10p 10p 2n 4n)
MP out in vdd fast p
MN out in 0 fast n
CL out 0 10f
.tran 20p 4n
.print v(in) v(out)
`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := deck.Run(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	// The output must swing: find min and max of v(out).
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, ln := range lines[2:] {
		f := strings.Split(ln, ",")
		if len(f) != 3 {
			t.Fatalf("bad row %q", ln)
		}
		v, err := ParseValue(f[2])
		if err != nil {
			t.Fatal(err)
		}
		mn = math.Min(mn, v)
		mx = math.Max(mx, v)
	}
	if mx < 0.5 || mn > 0.15 {
		t.Fatalf("inverter transient swing [%g, %g]", mn, mx)
	}
}

func TestModelLevelsSelectImplementations(t *testing.T) {
	deck, err := Parse(`levels
.model ref cnt level=0
.model m1 cnt level=1
.model m2 cnt level=2
VDD d 0 0.4
VG g 0 0.5
Mref d g 0 ref
Mm1 d2 g 0 m1
Mm2 d3 g 0 m2
VD2 d2 0 0.4
VD3 d3 0 0.4
.op
`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := deck.Run(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
}

func TestDiodeCard(t *testing.T) {
	deck, err := Parse(`diode
V1 in 0 5
R1 in d 1k
D1 d 0 is=1e-14 n=1 temp=300
.op
.print v(d)
`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := deck.Run(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "0.6") && !strings.Contains(b.String(), "0.7") {
		t.Fatalf("diode drop missing:\n%s", b.String())
	}
}

func TestTubesMultiplier(t *testing.T) {
	run := func(tubes string) float64 {
		deck, err := Parse(`tubes
.model fast cnt level=2
VDD d 0 0.5
VG g 0 0.6
M1 d g 0 fast n ` + tubes + `
.op
.print i(VDD)
`)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := deck.Run(context.Background(), &b); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(b.String()), "\n")
		f := strings.Fields(lines[len(lines)-1])
		v, err := ParseValue(f[len(f)-1])
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	one := run("tubes=1")
	three := run("tubes=3")
	// The two operating points converge independently to the Newton
	// voltage tolerance, so the ratio is 3 only to solver precision.
	if math.Abs(three/one-3) > 1e-3 {
		t.Fatalf("tubes scaling: %g vs %g", one, three)
	}
}

func TestControlledSourceCards(t *testing.T) {
	deck, err := Parse(`controlled sources
VC c 0 0.25
RC c 0 1meg
E1 eout 0 c 0 8
RLE eout 0 50
G1 gout 0 c 0 2m
RLG gout 0 1k
.op
.print v(eout) v(gout)
`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := deck.Run(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, "2") {
		t.Fatalf("VCVS output missing:\n%s", out)
	}
	// G element with 0.25V control and 2mS: 0.5mA leaving P through 1k
	// pulls gout to -0.5.
	if !strings.Contains(out, "-0.5") {
		t.Fatalf("VCCS output missing:\n%s", out)
	}
}

func TestControlledSourceCardErrors(t *testing.T) {
	if _, err := Parse("t\nE1 a 0 b 8\n.op\n"); err == nil {
		t.Fatal("short E card accepted")
	}
	if _, err := Parse("t\nG1 a 0 b 0 xx\n.op\n"); err == nil {
		t.Fatal("bad gain accepted")
	}
}

func TestDeviceCurrentProbe(t *testing.T) {
	deck, err := Parse(`device probe
.model fast cnt level=2
VDD d 0 0.5
VG g 0 0.6
M1 d g 0 fast n
.op
.print i(M1) i(VDD)
`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := deck.Run(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	var iM1, iVDD float64
	for _, ln := range lines {
		f := strings.Fields(ln)
		if len(f) != 2 {
			continue
		}
		v, err := ParseValue(f[1])
		if err != nil {
			continue
		}
		switch f[0] {
		case "i(M1)":
			iM1 = v
		case "i(VDD)":
			iVDD = v
		}
	}
	if iM1 <= 0 {
		t.Fatalf("device current %g, want positive", iM1)
	}
	// KCL: the supply sources exactly the device current (sign per the
	// branch convention: current flows out of the + terminal).
	if math.Abs(iM1+iVDD) > 1e-6*iM1 {
		t.Fatalf("i(M1)=%g, i(VDD)=%g: KCL broken", iM1, iVDD)
	}
}

func TestACCard(t *testing.T) {
	deck, err := Parse(`rc lowpass ac
VIN in 0 0
R1 in out 1k
C1 out 0 1n
.ac VIN dec 10 1k 100meg
.print v(out)
`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := deck.Run(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if !strings.Contains(lines[0], "AC sweep") || !strings.Contains(lines[1], "mag_out") {
		t.Fatalf("output:\n%s", b.String())
	}
	// First point (1 kHz, far below the 159 kHz pole): magnitude ≈ 1.
	first := strings.Split(lines[2], ",")
	mag, err := ParseValue(first[1])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mag-1) > 1e-3 {
		t.Fatalf("passband magnitude %g", mag)
	}
	// Last point (100 MHz): deep stopband.
	last := strings.Split(lines[len(lines)-1], ",")
	mag, err = ParseValue(last[1])
	if err != nil {
		t.Fatal(err)
	}
	if mag > 0.01 {
		t.Fatalf("stopband magnitude %g", mag)
	}
}

func TestACCardErrors(t *testing.T) {
	if _, err := Parse("t\n.ac V1 dec 10 1k\n"); err == nil {
		t.Fatal("short .ac accepted")
	}
	if _, err := Parse("t\n.ac V1 lin 10 1 1k\n"); err == nil {
		t.Fatal("non-dec .ac accepted")
	}
	deck, err := Parse("t\nVIN in 0 0\nR1 in 0 1k\n.ac VIN dec 10 1k 1meg\n.print i(VIN)\n")
	if err != nil {
		t.Fatal(err)
	}
	if err := deck.Run(context.Background(), &strings.Builder{}); err == nil {
		t.Fatal("current probe in .ac accepted")
	}
}

func TestInductorCardAndAdaptiveTran(t *testing.T) {
	deck, err := Parse(`rl step, adaptive stepping
V1 in 0 PULSE(0 1 0 1n 1n 1 1)
R1 in mid 1k
L1 mid 0 1m
.tran 1n 5u adaptive
.print v(mid) i(V1)
`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := deck.Run(context.Background(), &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	last := strings.Split(lines[len(lines)-1], ",")
	// After 5τ the source current approaches -1 mA (branch convention).
	iv, err := ParseValue(last[2])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(iv+1e-3) > 0.05e-3 {
		t.Fatalf("final source current %g", iv)
	}
	// Adaptive stepping: far fewer rows than the 5000 a fixed 1n grid
	// would produce.
	if len(lines) > 1000 {
		t.Fatalf("adaptive produced %d rows", len(lines))
	}
}
