package core

import (
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"cntfet/internal/fettoy"
	"cntfet/internal/rootfind"
	"cntfet/internal/telemetry"
)

func TestExportRoundTripExact(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	for _, build := range []func(*fettoy.Model) (*Model, error){Model1, Model2} {
		orig, err := build(ref)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(orig)
		if err != nil {
			t.Fatal(err)
		}
		back, err := UnmarshalData(raw)
		if err != nil {
			t.Fatal(err)
		}
		// The reconstructed model must evaluate bit-identically: same
		// charge curve, same closed-form solve.
		for vg := 0.0; vg <= 0.6; vg += 0.1 {
			for vd := 0.0; vd <= 0.6; vd += 0.15 {
				b := fettoy.Bias{VG: vg, VD: vd}
				i1, err1 := orig.IDS(b)
				i2, err2 := back.IDS(b)
				if err1 != nil || err2 != nil {
					t.Fatalf("%+v: %v / %v", b, err1, err2)
				}
				if i1 != i2 {
					t.Fatalf("%+v: %g != %g after round trip", b, i1, i2)
				}
			}
		}
		if got := back.Spec().Name; got != orig.Spec().Name {
			t.Fatalf("spec name %q after round trip", got)
		}
	}
}

func TestFromDataValidation(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	m, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	good := m.Export()

	mutations := []func(*ModelData){
		func(d *ModelData) { d.Device.Diameter = -1 },
		func(d *ModelData) { d.Spec.Degrees = nil },
		func(d *ModelData) { d.Pieces = d.Pieces[1:] },
		func(d *ModelData) { d.BreaksU = []float64{0.3, 0.1, 0.2} },
		func(d *ModelData) { d.N0 = -5 },
		func(d *ModelData) { d.Pieces[0] = []float64{1, 2, 3, 4, 5} },   // degree 4
		func(d *ModelData) { d.Pieces[1][0] *= 3 },                      // breaks C0 continuity
		func(d *ModelData) { d.Pieces[1] = append(d.Pieces[1], 1e-30) }, // cubic term in a quadratic region
		func(d *ModelData) { d.Pieces[3] = []float64{0, 0, 1e-30} },     // nonzero zero tail
		func(d *ModelData) { // one more fitted break than the spec has
			d.BreaksU = append(d.BreaksU, d.BreaksU[len(d.BreaksU)-1]+0.1)
			d.Pieces = append(d.Pieces, nil)
		},
		// Non-finite numbers pass every comparison above.
		func(d *ModelData) { d.N0 = math.NaN() },
		func(d *ModelData) { d.N0 = math.Inf(1) },
		func(d *ModelData) { d.BreaksU[0] = math.Inf(-1) },
		func(d *ModelData) { d.Pieces[0][0] = math.NaN() },
		func(d *ModelData) { d.Pieces[1][0] = math.NaN() },
		func(d *ModelData) { d.Pieces[0][len(d.Pieces[0])-1] = math.Inf(1) },
	}
	for i, mut := range mutations {
		d := cloneData(good)
		mut(&d)
		if _, err := FromData(d); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
	if _, err := UnmarshalData([]byte("{not json")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func cloneData(d ModelData) ModelData {
	out := d
	out.BreaksU = append([]float64(nil), d.BreaksU...)
	out.Pieces = make([][]float64, len(d.Pieces))
	for i, p := range d.Pieces {
		out.Pieces[i] = append([]float64(nil), p...)
	}
	out.Spec.Breaks = append([]float64(nil), d.Spec.Breaks...)
	out.Spec.Degrees = append([]int(nil), d.Spec.Degrees...)
	return out
}

func TestWriteVHDLAMSStructure(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	m, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := m.WriteVHDLAMS(&b, "cnt_m2"); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"entity cnt_m2 is",
		"architecture piecewise of cnt_m2 is",
		"terminal drain, gate, source : electrical",
		"quantity vsc : voltage",
		"function qns",
		"log(1.0 + exp((EF - vsc - ",
		"ALPHAG*vgs",
		"end architecture;",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("VHDL output missing %q:\n%s", want, out)
		}
	}
	// One conditional branch per fitted break.
	if got := strings.Count(out, "u <="); got != len(m.BreaksU()) {
		t.Fatalf("%d conditional branches for %d breaks", got, len(m.BreaksU()))
	}
}

func TestWriteVHDLAMSEntityNameValidation(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	m, err := Model1(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"1abc", "has space", "semi;colon", "_lead"} {
		if err := m.WriteVHDLAMS(&strings.Builder{}, bad); err == nil {
			t.Errorf("entity name %q accepted", bad)
		}
	}
	// Empty name falls back to the default.
	var b strings.Builder
	if err := m.WriteVHDLAMS(&b, ""); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "entity cntfet_piecewise is") {
		t.Fatal("default entity name missing")
	}
}

func TestVHDLPolyHornerForm(t *testing.T) {
	got := vhdlPoly([]float64{1, -2, 3})
	// Horner: 1 + u*(-2 + u*(3))
	if !strings.Contains(got, "u*(") || !strings.HasPrefix(got, "1.0000000000e+00") {
		t.Fatalf("vhdlPoly = %q", got)
	}
	if vhdlPoly(nil) != "0.0" {
		t.Fatal("empty polynomial should render 0.0")
	}
	// The rendered expression must evaluate like the polynomial: spot
	// check by simple substitution semantics (count of u occurrences
	// equals degree).
	if strings.Count(got, "u*") != 2 {
		t.Fatalf("expected 2 Horner steps: %q", got)
	}
}

// jumpArtifact returns the Model 1 export for the default device with
// piece 1's constant lowered by half of newModel's C0 tolerance, so the
// curve steps down by 0.5e-6·|qsU(b₀)| at its first break b₀ and is
// still accepted, together with the gate voltage (VDS = 0) whose
// eq. (7) residual crosses zero inside that step: -δ/CΣ on the left of
// the break, +δ/CΣ on the right.
func jumpArtifact(tb testing.TB) (ModelData, float64) {
	tb.Helper()
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		tb.Fatal(err)
	}
	m, err := Model1(ref)
	if err != nil {
		tb.Fatal(err)
	}
	d := cloneData(m.Export())
	delta := 0.5e-6 * math.Abs(m.qsU.At(m.qsU.Breaks[0]))
	d.Pieces[1][0] -= delta
	jm, err := FromData(d)
	if err != nil {
		tb.Fatal(err)
	}
	b := jm.fastBreaks[0]
	ul := -b + 2*jm.qsFast(b)/jm.csigma - delta/jm.csigma
	vg := (ul - jm.ulEff(fettoy.Bias{})) / jm.dev.AlphaG
	return d, vg
}

// TestSolveVSCRootInJumpAtBreak checks a root that lies in a
// sub-tolerance C0 jump of an imported curve: no piece holds it, and
// the solve returns the break itself, bit for bit, through SolveVSC and
// an allocation-free one-point IDSBatch.
func TestSolveVSCRootInJumpAtBreak(t *testing.T) {
	d, vg := jumpArtifact(t)
	m, err := FromData(d)
	if err != nil {
		t.Fatal(err)
	}
	brk := m.fastBreaks[0]
	bias := []fettoy.Bias{{VG: vg}}
	v, err := m.SolveVSC(bias[0])
	if err != nil || math.Float64bits(v) != math.Float64bits(brk) {
		t.Fatalf("SolveVSC(VG=%.17g) = %.17g, %v; want the break %.17g", vg, v, err, brk)
	}
	out := make([]float64, 1)
	if err := m.IDSBatch(bias, out); err != nil {
		t.Fatal(err)
	}
	if want := m.CurrentAtVSC(brk, bias[0]); math.Float64bits(out[0]) != math.Float64bits(want) {
		t.Fatalf("IDSBatch = %.17g, want %.17g (the current at the break)", out[0], want)
	}
	if raceEnabled {
		return // race instrumentation allocates
	}
	for _, gate := range []bool{false, true} {
		telemetry.Default().SetEnabled(gate)
		if avg := testing.AllocsPerRun(100, func() { _ = m.IDSBatch(bias, out) }); avg != 0 {
			t.Errorf("telemetry=%v: IDSBatch allocates %.1f objects at the jump", gate, avg)
		}
	}
	telemetry.Disable()
}

// TestSolveVSCNoRootIsBadBracket checks the solve's failure exit on an
// imported curve that breaks the monotonicity the solve rests on: a
// downward parabola added to the linear piece (its region declared
// quadratic), tangent at b₀ so the curve stays C¹, makes the eq. (7)
// residual positive everywhere at a large gate voltage. SolveVSC,
// IDSFrom and IDSBatch must all fail with an error wrapping
// rootfind.ErrBadBracket, which the engine classes as numerical.
func TestSolveVSCNoRootIsBadBracket(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	m1, err := Model1(ref)
	if err != nil {
		t.Fatal(err)
	}
	d := cloneData(m1.Export())
	// Piece 0 += a·(u - b₀)² with a < 0: value and slope at b₀ unchanged.
	d.Spec.Degrees[0] = 2
	b0, a := d.BreaksU[0], -50*m1.csigma
	p := append(d.Pieces[0], 0)
	p[0] += a * b0 * b0
	p[1] -= 2 * a * b0
	p[2] += a
	d.Pieces[0] = p
	m, err := FromData(d)
	if err != nil {
		t.Fatal(err)
	}
	b := fettoy.Bias{VG: 0.8}
	if _, err := m.SolveVSC(b); !errors.Is(err, rootfind.ErrBadBracket) {
		t.Fatalf("SolveVSC = %v, want an error wrapping rootfind.ErrBadBracket", err)
	}
	if _, _, err := m.IDSFrom(b, 0); !errors.Is(err, rootfind.ErrBadBracket) {
		t.Fatalf("IDSFrom = %v, want an error wrapping rootfind.ErrBadBracket", err)
	}
	out := make([]float64, 2)
	if err := m.IDSBatch([]fettoy.Bias{{VG: 0.1}, b}, out); !errors.Is(err, rootfind.ErrBadBracket) {
		t.Fatalf("IDSBatch = %v, want an error wrapping rootfind.ErrBadBracket", err)
	}
}
