package core

import (
	"errors"
	"math"
	"testing"

	"cntfet/internal/fettoy"
	"cntfet/internal/rootfind"
	"cntfet/internal/units"
)

func refModel(t *testing.T, dev fettoy.Device) *fettoy.Model {
	t.Helper()
	m, err := fettoy.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestSpecValidation(t *testing.T) {
	if err := Model1Spec().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Model2Spec().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Spec{
		{Name: "no breaks", Degrees: []int{1}, ZeroTail: false},
		{Name: "degree 4", Breaks: []float64{0}, Degrees: []int{4}, ZeroTail: true},
		{Name: "negative degree", Breaks: []float64{0}, Degrees: []int{-1}, ZeroTail: true},
		{Name: "count mismatch", Breaks: []float64{0}, Degrees: []int{1, 2}, ZeroTail: true},
		{Name: "unsorted", Breaks: []float64{0.1, -0.1}, Degrees: []int{1, 2}, ZeroTail: true},
		{Name: "nine breaks", Breaks: []float64{-0.4, -0.3, -0.2, -0.1, 0, 0.1, 0.2, 0.3, 0.4},
			Degrees: []int{1, 2, 2, 2, 2, 2, 2, 2, 2}, ZeroTail: true},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("spec %q accepted", s.Name)
		}
	}
}

func TestSpecRegionsDescription(t *testing.T) {
	r := Model2Spec().Regions()
	if len(r) != 4 {
		t.Fatalf("regions = %v", r)
	}
	if r[0] == "" || r[3] == "" {
		t.Fatal("empty region description")
	}
}

func TestPaperBreakpointsMatchSection4(t *testing.T) {
	m1, m2 := Model1Spec(), Model2Spec()
	if m1.Breaks[0] != -0.08 || m1.Breaks[1] != 0.08 {
		t.Fatalf("Model 1 breaks %v", m1.Breaks)
	}
	if m2.Breaks[0] != -0.28 || m2.Breaks[1] != -0.03 || m2.Breaks[2] != 0.12 {
		t.Fatalf("Model 2 breaks %v", m2.Breaks)
	}
}

func TestFitProducesC1Curve(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	for _, build := range []func(*fettoy.Model) (*Model, error){Model1, Model2} {
		m, err := build(ref)
		if err != nil {
			t.Fatal(err)
		}
		q := Quality(ref, m, FitOptions{})
		scale := math.Abs(m.QS(m.dev.EF - 0.4))
		if q.C0 > 1e-9*scale {
			t.Fatalf("%s: value jump %g vs scale %g", m.Spec().Name, q.C0, scale)
		}
	}
}

func TestChargeFitAccuracy(t *testing.T) {
	// The paper: Model 2 tracks the theoretical charge more closely
	// than Model 1 (figs. 4 vs 5); both are few-percent accurate.
	ref := refModel(t, fettoy.Default())
	m1, err := Model1(ref)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	q1 := Quality(ref, m1, FitOptions{})
	q2 := Quality(ref, m2, FitOptions{})
	if q2.RMSRel >= q1.RMSRel {
		t.Fatalf("Model 2 rel RMS %g not better than Model 1 %g", q2.RMSRel, q1.RMSRel)
	}
	// The default fit is knee-weighted, so the absolute RMS over the
	// window is looser than a pure least-squares fit would give;
	// figures 4/5 still bound it well under the curve scale.
	if q1.RMSRel > 0.25 {
		t.Fatalf("Model 1 charge fit too loose: %g", q1.RMSRel)
	}
	if q2.RMSRel > 0.08 {
		t.Fatalf("Model 2 charge fit too loose: %g", q2.RMSRel)
	}
	// Knee region (|u| <= 0.1): charge must be accurate in *relative*
	// terms there, since subthreshold IDS is exponentially sensitive.
	dev := ref.Device()
	for _, u := range []float64{-0.05, 0, 0.05} {
		vsc := u + dev.EF
		truth := ref.QS(vsc)
		if truth <= 0 {
			continue
		}
		rel2 := math.Abs(m2.QS(vsc)-truth) / truth
		if rel2 > 0.25 {
			t.Fatalf("Model 2 knee error %.0f%% at u=%g", 100*rel2, u)
		}
	}
}

func TestQSZeroRegion(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	m, err := Model1(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Above EF/q + 0.08 the filled-state term is identically zero, so
	// QS sits exactly at the equilibrium constant -q·N0/2 (which for
	// EF = -0.32 eV is ~1e-17 C/m, six orders below the curve scale).
	want := -0.5 * units.Q * ref.N0()
	for _, u := range []float64{0.09, 0.2, 1, 5} {
		if got := m.QS(m.dev.EF + u); got != want {
			t.Fatalf("QS(u=%g) = %g, want exactly %g", u, got, want)
		}
	}
	if math.Abs(want) > 1e-15 {
		t.Fatalf("equilibrium constant %g unexpectedly large for EF=-0.32", want)
	}
}

func TestQDIsShiftedQS(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	m, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, vds := range []float64{0, 0.1, 0.35, 0.6} {
		for _, vsc := range []float64{-0.6, -0.4, -0.32, -0.2, 0} {
			if got, want := m.QD(vsc, vds), m.QS(vsc+vds); got != want {
				t.Fatalf("QD(%g,%g) = %g, QS(shift) = %g", vsc, vds, got, want)
			}
		}
	}
}

func TestSolveVSCMatchesReference(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	m2, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []fettoy.Bias{
		{VG: 0.3, VD: 0.1}, {VG: 0.45, VD: 0.3}, {VG: 0.6, VD: 0.6}, {VG: 0.2, VD: 0.5},
	} {
		fast, err := m2.SolveVSC(b)
		if err != nil {
			t.Fatalf("%+v: %v", b, err)
		}
		slow, _, err := ref.SolveVSC(b)
		if err != nil {
			t.Fatalf("%+v: %v", b, err)
		}
		if math.Abs(fast-slow) > 0.02 {
			t.Fatalf("%+v: VSC fast %g vs reference %g", b, fast, slow)
		}
	}
}

func TestIDSParityWithReferenceFamily(t *testing.T) {
	// The headline claim: IDS from the piecewise models stays within a
	// few percent RMS of the theory across the paper's sweep window.
	ref := refModel(t, fettoy.Default())
	m1, _ := Model1(ref)
	m2, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, vg := range []float64{0.3, 0.45, 0.6} {
		var sum1, sum2, norm float64
		n := 0
		for vd := 0.0; vd <= 0.6+1e-9; vd += 0.05 {
			b := fettoy.Bias{VG: vg, VD: vd}
			iRef, err := ref.IDS(b)
			if err != nil {
				t.Fatal(err)
			}
			i1, err := m1.IDS(b)
			if err != nil {
				t.Fatal(err)
			}
			i2, err := m2.IDS(b)
			if err != nil {
				t.Fatal(err)
			}
			sum1 += (i1 - iRef) * (i1 - iRef)
			sum2 += (i2 - iRef) * (i2 - iRef)
			norm += iRef
			n++
		}
		norm /= float64(n)
		rms1 := math.Sqrt(sum1/float64(n)) / norm
		rms2 := math.Sqrt(sum2/float64(n)) / norm
		if rms1 > 0.10 {
			t.Fatalf("VG=%g: Model 1 IDS RMS %.3f too large", vg, rms1)
		}
		if rms2 > 0.05 {
			t.Fatalf("VG=%g: Model 2 IDS RMS %.3f too large", vg, rms2)
		}
	}
}

func TestIDSZeroAtZeroVDS(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	m, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	i, err := m.IDS(fettoy.Bias{VG: 0.5, VD: 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(i) > 1e-15 {
		t.Fatalf("IDS(VDS=0) = %g", i)
	}
}

func TestIDSMonotoneInVG(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	m, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for _, vg := range []float64{0.1, 0.25, 0.4, 0.55} {
		i, err := m.IDS(fettoy.Bias{VG: vg, VD: 0.4})
		if err != nil {
			t.Fatal(err)
		}
		if i <= prev {
			t.Fatalf("not monotone at VG=%g", vg)
		}
		prev = i
	}
}

func TestSolveMirrorsOperatingPoint(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	m, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	b := fettoy.Bias{VG: 0.5, VD: 0.3}
	op, err := m.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	ids, _ := m.IDS(b)
	if !units.CloseRel(op.IDS, ids, 1e-12) {
		t.Fatal("Solve/IDS disagree")
	}
	if op.QS != m.QS(op.VSC) || op.QD != m.QD(op.VSC, 0.3) {
		t.Fatal("operating point charges inconsistent")
	}
}

func TestFitOptionsValidation(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	if _, err := Fit(ref, Model1Spec(), FitOptions{URange: [2]float64{1, -1}}); err == nil {
		t.Fatal("inverted URange accepted")
	}
	if _, err := Fit(ref, Spec{Name: "bad"}, FitOptions{}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestOptimizeBreaksImprovesOrMatchesPaperBreaks(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	base, err := Fit(ref, Model1Spec(), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	opt, err := Fit(ref, Model1Spec(), FitOptions{OptimizeBreaks: true})
	if err != nil {
		t.Fatal(err)
	}
	qBase := Quality(ref, base, FitOptions{})
	qOpt := Quality(ref, opt, FitOptions{})
	if qOpt.RMS > qBase.RMS*1.0000001 {
		t.Fatalf("optimised breaks worse: %g vs %g", qOpt.RMS, qBase.RMS)
	}
}

func TestDifferentTemperaturesFitAndSolve(t *testing.T) {
	for _, temp := range []float64{150, 300, 450} {
		for _, ef := range []float64{-0.5, -0.32, 0} {
			dev := fettoy.Default()
			dev.T = temp
			dev.EF = ef
			ref := refModel(t, dev)
			m, err := Model2(ref)
			if err != nil {
				t.Fatalf("T=%g EF=%g: %v", temp, ef, err)
			}
			i, err := m.IDS(fettoy.Bias{VG: 0.4, VD: 0.3})
			if err != nil {
				t.Fatalf("T=%g EF=%g: %v", temp, ef, err)
			}
			if i <= 0 || math.IsNaN(i) {
				t.Fatalf("T=%g EF=%g: IDS = %g", temp, ef, i)
			}
		}
	}
}

func TestAccessors(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	m, err := Model1(ref)
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec().Name != "Model 1" {
		t.Fatal("spec accessor")
	}
	if len(m.BreaksU()) != 2 {
		t.Fatal("breaks accessor")
	}
	if m.Device().EF != fettoy.Default().EF {
		t.Fatal("device accessor")
	}
	if m.PiecewiseU().MaxDegree() != 2 {
		t.Fatal("piecewise accessor")
	}
	// BreaksU returns a copy.
	m.BreaksU()[0] = 99
	if m.qsU.Breaks[0] == 99 {
		t.Fatal("BreaksU aliases internal state")
	}
}

func TestFastSolverMatchesGenericPath(t *testing.T) {
	// The allocation-free solver and the generic piecewise solver in
	// generic_test.go must agree to solver precision over a dense bias
	// grid, for both models and several devices, and for the largest
	// spec Validate accepts, which fills the fast path's merged
	// breakpoint buffer.
	eight := Spec{
		Name:     "eight breaks",
		Breaks:   []float64{-0.28, -0.2, -0.12, -0.06, -0.03, 0, 0.05, 0.12},
		Degrees:  []int{1, 2, 2, 2, 2, 2, 2, 3},
		ZeroTail: true,
	}
	devices := []fettoy.Device{fettoy.Default(), fettoy.Javey()}
	for _, dev := range devices {
		ref := refModel(t, dev)
		for _, spec := range []Spec{Model1Spec(), Model2Spec(), eight} {
			m, err := Fit(ref, spec, FitOptions{})
			if err != nil {
				t.Fatal(err)
			}
			for vg := 0.0; vg <= 0.61; vg += 0.06 {
				for vd := 0.0; vd <= 0.61; vd += 0.1 {
					b := fettoy.Bias{VG: vg, VD: vd}
					fast, err1 := m.SolveVSC(b)
					gen, err2 := m.solveVSCGeneric(b)
					if err1 != nil || err2 != nil {
						t.Fatalf("%s %+v: %v / %v", spec.Name, b, err1, err2)
					}
					if math.Abs(fast-gen) > 1e-9 {
						t.Fatalf("%s %+v: fast %.12g vs generic %.12g", spec.Name, b, fast, gen)
					}
				}
			}
		}
	}
}

func TestFastSolverNegativeVDS(t *testing.T) {
	// Circuit use reaches VDS < 0 (through the element's symmetry
	// wrapper) and VS != 0; the solver itself must stay consistent for
	// raw negative drain bias too.
	ref := refModel(t, fettoy.Default())
	m, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	b := fettoy.Bias{VG: 0.5, VD: -0.2}
	fast, err1 := m.SolveVSC(b)
	gen, err2 := m.solveVSCGeneric(b)
	if err1 != nil || err2 != nil {
		t.Fatalf("%v / %v", err1, err2)
	}
	if math.Abs(fast-gen) > 1e-9 {
		t.Fatalf("fast %g vs generic %g", fast, gen)
	}
}

func TestPiecewiseConductancesMatchFiniteDifferences(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	for _, build := range []func(*fettoy.Model) (*Model, error){Model1, Model2} {
		m, err := build(ref)
		if err != nil {
			t.Fatal(err)
		}
		h := 1e-7
		for _, b := range []fettoy.Bias{
			{VG: 0.3, VD: 0.2}, {VG: 0.5, VD: 0.05}, {VG: 0.6, VD: 0.5},
		} {
			ids, gm, gds, err := m.Conductances(b)
			if err != nil {
				t.Fatalf("%+v: %v", b, err)
			}
			direct, _ := m.IDS(b)
			if math.Abs(ids-direct) > 1e-9*math.Abs(direct) {
				t.Fatalf("%+v: IDS mismatch", b)
			}
			iGp, _ := m.IDS(fettoy.Bias{VG: b.VG + h, VD: b.VD})
			iGm, _ := m.IDS(fettoy.Bias{VG: b.VG - h, VD: b.VD})
			iDp, _ := m.IDS(fettoy.Bias{VG: b.VG, VD: b.VD + h})
			iDm, _ := m.IDS(fettoy.Bias{VG: b.VG, VD: b.VD - h})
			fdGm := (iGp - iGm) / (2 * h)
			fdGds := (iDp - iDm) / (2 * h)
			// The piecewise curve has slope kinks at region
			// boundaries; away from them the analytic derivative is
			// exact.
			if math.Abs(gm-fdGm) > 1e-4*math.Abs(fdGm)+1e-10 {
				t.Fatalf("%s %+v: gm analytic %g vs fd %g", m.Spec().Name, b, gm, fdGm)
			}
			if math.Abs(gds-fdGds) > 1e-4*math.Abs(fdGds)+1e-10 {
				t.Fatalf("%s %+v: gds analytic %g vs fd %g", m.Spec().Name, b, gds, fdGds)
			}
		}
	}
}

func TestMultiTemperatureTraining(t *testing.T) {
	// One model trained over the paper's 150-450 K range must still
	// track the 300 K theory, just less tightly than a fit at 300 K
	// itself.
	ref := refModel(t, fettoy.Default())
	perT, err := Fit(ref, Model2Spec(), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Fit(ref, Model2Spec(), FitOptions{TrainTemps: []float64{150, 300, 450}})
	if err != nil {
		t.Fatal(err)
	}
	rms := func(m *Model) float64 {
		var sum, norm float64
		n := 0
		for vd := 0.05; vd <= 0.6; vd += 0.05 {
			b := fettoy.Bias{VG: 0.45, VD: vd}
			iRef, err := ref.IDS(b)
			if err != nil {
				t.Fatal(err)
			}
			im, err := m.IDS(b)
			if err != nil {
				t.Fatal(err)
			}
			sum += (im - iRef) * (im - iRef)
			norm += iRef
			n++
		}
		return math.Sqrt(sum/float64(n)) / (norm / float64(n))
	}
	rPer, rMulti := rms(perT), rms(multi)
	if rMulti > 0.15 {
		t.Fatalf("multi-T model too loose at 300K: %.3f", rMulti)
	}
	if rPer > rMulti*1.5 {
		t.Fatalf("per-T fit (%.4f) should not be much worse than multi-T (%.4f)", rPer, rMulti)
	}
}

func TestTrainTempsValidation(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	if _, err := Fit(ref, Model2Spec(), FitOptions{TrainTemps: []float64{-10}}); err == nil {
		t.Fatal("negative training temperature accepted")
	}
}

func TestTailC1CollapsesModel1(t *testing.T) {
	// With C1 enforced against the zero tail, Model 1 has a single
	// degree of freedom (the quadratic is k·(u-b)² and the line its
	// tangent); the fit still works but tracks the knee much worse.
	ref := refModel(t, fettoy.Default())
	spec := Model1Spec()
	spec.TailC1 = true
	rigid, err := Fit(ref, spec, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Structural check: quadratic piece is k(u-b)² — its value and
	// slope vanish at the tail break.
	pw := rigid.PiecewiseU()
	b := pw.Breaks[1]
	q := pw.Pieces[1]
	if math.Abs(q.At(b)) > 1e-15 || math.Abs(q.Deriv().At(b)) > 1e-13 {
		t.Fatalf("tail join not C1: value %g slope %g", q.At(b), q.Deriv().At(b))
	}
	flexible, err := Fit(ref, Model1Spec(), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The flexible fit must be at least as good in weighted RMS; spot
	// check IDS at a knee bias.
	bias := fettoy.Bias{VG: 0.4, VD: 0.3}
	iRef, _ := ref.IDS(bias)
	iR, _ := rigid.IDS(bias)
	iF, _ := flexible.IDS(bias)
	if math.Abs(iF-iRef) > math.Abs(iR-iRef)*1.2 {
		t.Fatalf("flexible fit (%g) not better than rigid (%g) vs ref %g", iF, iR, iRef)
	}
}

func TestQuantumCapacitanceMatchesTheory(t *testing.T) {
	// The figure-1 equivalent-circuit elements: the model's piecewise
	// dQS/dVSC must track the theoretical -q·N'(USF)/2 in the charging
	// region.
	ref := refModel(t, fettoy.Default())
	m, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	for _, vsc := range []float64{-0.6, -0.5, -0.45} {
		want := ref.CQS(vsc)
		got := m.CQS(vsc)
		if want >= 0 {
			t.Fatalf("theory CQS(%g) = %g, expected negative (QS decreasing)", vsc, want)
		}
		// The linear region's constant slope is a secant of the curved
		// theory derivative, so agreement is loose by construction --
		// right order and sign, not pointwise.
		if math.Abs(got-want) > 0.45*math.Abs(want) {
			t.Fatalf("CQS(%g): model %g vs theory %g", vsc, got, want)
		}
	}
	// Consistency with finite differences of the model's own QS.
	h := 1e-6
	for _, vsc := range []float64{-0.55, -0.4, -0.3} {
		fd := (m.QS(vsc+h) - m.QS(vsc-h)) / (2 * h)
		if math.Abs(m.CQS(vsc)-fd) > 1e-6*math.Abs(fd)+1e-18 {
			t.Fatalf("CQS(%g) = %g, fd %g", vsc, m.CQS(vsc), fd)
		}
	}
	// Drain-side is the shifted source-side.
	if m.CQD(-0.5, 0.2) != m.CQS(-0.3) {
		t.Fatal("CQD should be shifted CQS")
	}
}

func TestWithEFMatchesRefit(t *testing.T) {
	// Shifting the Fermi level through WithEF must agree with a fresh
	// fit at that Fermi level: the u-space curve is EF-invariant.
	base := refModel(t, fettoy.Default())
	m, err := Model2(base)
	if err != nil {
		t.Fatal(err)
	}
	for _, ef := range []float64{-0.25, -0.4, -0.35} {
		shifted, err := m.WithEF(ef)
		if err != nil {
			t.Fatal(err)
		}
		dev := fettoy.Default()
		dev.EF = ef
		ref := refModel(t, dev)
		refit, err := Model2(ref)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []fettoy.Bias{{VG: 0.4, VD: 0.3}, {VG: 0.6, VD: 0.6}} {
			iS, err1 := shifted.IDS(b)
			iR, err2 := refit.IDS(b)
			if err1 != nil || err2 != nil {
				t.Fatalf("EF=%g %+v: %v/%v", ef, b, err1, err2)
			}
			// Both approximate the same theory; the u-window of the
			// two fits differs slightly, so allow small deviation.
			if math.Abs(iS-iR) > 0.05*iR {
				t.Fatalf("EF=%g %+v: WithEF %g vs refit %g", ef, b, iS, iR)
			}
			// And the shifted model tracks the theory itself.
			iT, err := ref.IDS(b)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(iS-iT) > 0.08*iT {
				t.Fatalf("EF=%g %+v: WithEF %g vs theory %g", ef, b, iS, iT)
			}
		}
	}
}

func TestWithEFEquilibriumConstant(t *testing.T) {
	// At EF = 0 the equilibrium density is substantial and must come
	// out of the fitted curve itself.
	dev := fettoy.Default()
	dev.EF = -0.1
	ref := refModel(t, dev)
	m, err := Fit(ref, Model2Spec(), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	shifted, err := m.WithEF(-0.02)
	if err != nil {
		t.Fatal(err)
	}
	devShift := dev
	devShift.EF = -0.02
	refShift := refModel(t, devShift)
	wantN0 := refShift.N0()
	if wantN0 <= 0 {
		t.Fatal("reference N0 not positive")
	}
	if rel := math.Abs(shifted.n0-wantN0) / wantN0; rel > 0.25 {
		t.Fatalf("WithEF N0 %g vs theory %g (rel %g)", shifted.n0, wantN0, rel)
	}
}

func TestWithEFValidation(t *testing.T) {
	ref := refModel(t, fettoy.Default())
	m, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	// A NaN Fermi level must not produce a silently plausible current:
	// either construction fails or evaluation propagates the NaN.
	if mm, err := m.WithEF(math.NaN()); err == nil && mm != nil {
		if i, err := mm.IDS(fettoy.Bias{VG: 0.5, VD: 0.3}); err == nil && !math.IsNaN(i) {
			t.Fatalf("NaN EF silently produced %g", i)
		}
	}
}

func TestTransmissionPropagatesToFastModel(t *testing.T) {
	dev := fettoy.Default()
	dev.Transmission = 0.7
	ref := refModel(t, dev)
	m, err := Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	devBal := fettoy.Default()
	refBal := refModel(t, devBal)
	mBal, err := Model2(refBal)
	if err != nil {
		t.Fatal(err)
	}
	b := fettoy.Bias{VG: 0.5, VD: 0.4}
	iS, err1 := m.IDS(b)
	iB, err2 := mBal.IDS(b)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if math.Abs(iS-0.7*iB) > 1e-6*iB {
		t.Fatalf("fast model T=0.7 current %g, want 0.7x %g", iS, iB)
	}
}

// TestTinyCubicNeverReturnsWrongRoot is the refused-polish regression:
// Model 1 with its quadratic region declared cubic and a cubic
// coefficient around 1e-17 (c₂/c₃ ~ 1e7 once normalised), where the
// trigonometric form cancels to a candidate that is no root. The solve
// must either find a root of the model's own eq. (7) residual or report
// ErrBadBracket, never return the lost candidate as a VSC.
func TestTinyCubicNeverReturnsWrongRoot(t *testing.T) {
	m1, err := Model1(refModel(t, fettoy.Default()))
	if err != nil {
		t.Fatal(err)
	}
	b := fettoy.Bias{VG: 0.5234}
	for _, c3 := range []float64{-1e-17, -1.6e-17, -1.7e-17, -2e-17, -3e-17} {
		d := cloneData(m1.Export())
		d.Spec.Degrees[1] = 3
		d.Pieces[1] = append(d.Pieces[1], c3)
		m, err := FromData(d)
		if err != nil {
			t.Fatal(err)
		}
		v, err := m.SolveVSC(b)
		if err != nil {
			if !errors.Is(err, rootfind.ErrBadBracket) {
				t.Fatalf("c3 %g: %v, want ErrBadBracket", c3, err)
			}
			continue
		}
		if res := v + m.ulEff(b) - 2*m.vscCurve().At(v)/m.csigma; math.Abs(res) > 1e-9 {
			t.Errorf("c3 %g: VSC %v has eq. (7) residual %g V", c3, v, res)
		}
	}
}
