package core

import (
	"errors"
	"math"
	"testing"

	"cntfet/internal/fettoy"
	"cntfet/internal/rootfind"
)

// solveTol bounds, in volts, both how far the closed-form root may sit
// from the generic piecewise solve and the eq. (7) residual at it. The
// residual's slope in V is at least 1 (CΣ plus a non-negative quantum
// capacitance), so a residual bound is also a bound on the root error.
// Observed worst cases over the paper's nine cells are ~2e-15 V; 1e-12
// V leaves rounding headroom and sits ten decades below kT/q.
const solveTol = 1e-12

// fuzzFit fits the paper's Model 1 or Model 2 to the default device at
// temperature temp and Fermi level ef.
func fuzzFit(tb testing.TB, temp, ef float64, model2 bool) *Model {
	tb.Helper()
	dev := fettoy.Default()
	dev.T, dev.EF = temp, ef
	spec := Model1Spec()
	if model2 {
		spec = Model2Spec()
	}
	ref, err := fettoy.New(dev)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := Fit(ref, spec, FitOptions{})
	if err != nil {
		tb.Fatalf("%s fit at T=%g K, EF=%g eV: %v", spec.Name, temp, ef, err)
	}
	return m
}

// foldInto maps x into [lo, hi]: values already inside are kept, so
// seeds read as the biases they are; others wrap around the interval.
func foldInto(x, lo, hi float64) float64 {
	if x >= lo && x <= hi {
		return x
	}
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return lo
	}
	return lo + math.Mod(math.Abs(x-lo), hi-lo)
}

// FuzzSolveVSCFast checks the closed-form VSC solve over the served
// domain — T in [150, 450] K, EF in [-0.5, 0] eV, VG and VDS in
// [0, 0.8] V, on Model 1 and Model 2 fits: the allocation-free fast
// path must succeed, agree with the generic solve in generic_test.go,
// and leave an eq. (7) residual within solveTol.
//
// Seeds cover the solver's edge cases:
//   - VDS = 0 and VDS = b_j - b_i, where every (or one) drain-shifted
//     break coincides with a source break and the scan's 1e-15
//     coincident-break skip fires, plus VDS 2e-15 V either side of that,
//     which leaves a bracket just wider than the skip threshold; VG is
//     chosen to put the root exactly on the coincident break.
//   - The bias nearest the Cardano↔trigonometric switch. On these fits
//     the bracketed residual is at most quadratic (Model 1) or a
//     monotone cubic (Model 2: depressed-cubic p ≥ 0 at every bias of a
//     grid scan), so the discriminant stays positive and the
//     trigonometric branch is not reached. A coordinate search over the
//     domain found the smallest discriminant, 7e-4 of the cubic's own
//     scale (a/3)^6, at the Model 2 seed below, where VDS is 2e-11 V off
//     a coincident break pair and the root sits 1e-11 V above the lower
//     break.
func FuzzSolveVSCFast(f *testing.F) {
	f.Add(300.0, -0.32, 0.5, 0.4, false)
	f.Add(300.0, -0.32, 0.5, 0.4, true)
	f.Add(150.0, -0.35000007629394531, 0.79090443514287467, 0.39999999998137353, true)
	for _, model2 := range []bool{false, true} {
		m := fuzzFit(f, 300, -0.32, model2)
		breaks := m.fastBreaks
		for i := range breaks {
			for j := i; j < len(breaks); j++ {
				base := breaks[j] - breaks[i]
				for _, vds := range []float64{base, base - 2e-15, base + 2e-15} {
					if vds < 0 {
						continue
					}
					// The VG whose root is V = b_i: F(b_i) = 0 solved for
					// the gate term.
					b := breaks[i]
					ul := -b + (m.qsFast(b)+m.qsFast(b+vds))/m.csigma
					vg := (ul - m.ulEff(fettoy.Bias{VD: vds})) / m.dev.AlphaG
					if vg >= 0 && vg <= 0.8 {
						f.Add(300.0, -0.32, vg, vds, model2)
					}
				}
			}
		}
	}

	f.Fuzz(func(t *testing.T, temp, ef, vg, vds float64, model2 bool) {
		temp = foldInto(temp, 150, 450)
		ef = foldInto(ef, -0.5, 0)
		vg = foldInto(vg, 0, 0.8)
		vds = foldInto(vds, 0, 0.8)
		m := fuzzFit(t, temp, ef, model2)
		b := fettoy.Bias{VG: vg, VD: vds}

		fast, _, ok := m.solveVSCFast(m.ulEff(b), vds)
		if !ok {
			t.Fatalf("fast path failed at T=%g EF=%g %+v", temp, ef, b)
		}
		if v, err := m.SolveVSC(b); err != nil || math.Float64bits(v) != math.Float64bits(fast) {
			t.Fatalf("SolveVSC = %v, %v; fast path %v", v, err, fast)
		}
		gen, err := m.solveVSCGeneric(b)
		if err != nil {
			t.Fatalf("generic solve at T=%g EF=%g %+v: %v", temp, ef, b, err)
		}
		if d := math.Abs(fast - gen); d > solveTol {
			t.Fatalf("T=%g EF=%g %+v: fast %.17g vs generic %.17g (|Δ| %.3g V)", temp, ef, b, fast, gen, d)
		}
		// Eq. (7) through the exported charge curves, not the fast
		// path's own piece lookup.
		d := m.dev
		res := fast + d.AlphaG*vg + d.AlphaD*vds - (m.QS(fast)+m.QD(fast, vds))/m.csigma
		if math.Abs(res) > solveTol {
			t.Fatalf("T=%g EF=%g %+v: eq. (7) residual %.3g V at VSC %.17g", temp, ef, b, res, fast)
		}
	})
}

// FuzzFitMonotone checks the property the closed-form solve rests on,
// over T in [150, 450] K and EF in [-0.5, 0] eV on Model 1 and Model 2
// fits: the eq. (7) residual
//
//	F(VSC) = VSC + UL - (q·NS(VSC) + q·NS(VSC + VDS) - q·N0)/CΣ
//
// is strictly increasing for every VDS, so its root is unique. Its
// slope is 1 - (s(VSC) + s(VSC + VDS))/CΣ, with s the fitted curve's
// slope, so F is strictly increasing wherever s < CΣ/2 on every piece.
//
// The stronger property, s ≤ 0 (q·NS non-increasing, as the true charge
// is), does not hold: the Model 1 quadratic and the Model 2 cubic rise
// just before the zero tail at some (T, EF), by up to 3% of CΣ
// (Model 1 at 150 K, EF = -0.5 eV, a seed below). The bound CΣ/2 is
// what uniqueness needs.
//
// A piece's slope has degree at most 2, so its largest value on the
// piece is at an end or at its own stationary point inside. The outer
// pieces are unbounded: there the slope's leading term must also stay
// non-positive at infinity. Seeds: the paper's nine cells, and
// FuzzSolveVSCFast's (T, EF, model) seeds.
func FuzzFitMonotone(f *testing.F) {
	for _, temp := range []float64{150, 300, 450} {
		for _, ef := range []float64{-0.5, -0.32, 0} {
			f.Add(temp, ef, false)
			f.Add(temp, ef, true)
		}
	}
	f.Add(150.0, -0.35000007629394531, true)

	f.Fuzz(func(t *testing.T, temp, ef float64, model2 bool) {
		temp = foldInto(temp, 150, 450)
		ef = foldInto(ef, -0.5, 0)
		m := fuzzFit(t, temp, ef, model2)
		bound := m.csigma / 2
		d := m.vscCurve().Deriv()
		for i, p := range d.Pieces {
			lo, hi := math.Inf(-1), math.Inf(1)
			if i > 0 {
				lo = d.Breaks[i-1]
			}
			if i < len(d.Breaks) {
				hi = d.Breaks[i]
			}
			xs := make([]float64, 0, 3)
			for _, x := range []float64{lo, hi} {
				if !math.IsInf(x, 0) {
					xs = append(xs, x)
				}
			}
			if p.Degree() == 2 {
				if x := -p.Coef[1] / (2 * p.Coef[2]); x > lo && x < hi {
					xs = append(xs, x)
				}
			}
			for _, x := range xs {
				if s := p.At(x); !(s < bound) {
					t.Fatalf("T=%g EF=%g model2=%v: piece %d of q·NS has slope %g ≥ CΣ/2 = %g at VSC=%.17g",
						temp, ef, model2, i, s, bound, x)
				}
			}
			if k := p.Degree(); k > 0 {
				// Sign of the leading term c_k·x^k as x → ±∞.
				lead := p.Coef[k]
				if math.IsInf(lo, -1) && k%2 == 1 {
					lead = -lead
				}
				if (math.IsInf(lo, -1) || math.IsInf(hi, 1)) && lead > 0 {
					t.Fatalf("T=%g EF=%g model2=%v: unbounded piece %d of q·NS rises without bound", temp, ef, model2, i)
				}
			}
		}
	})
}

// FuzzFromData checks the path by which outside data becomes a model.
// It perturbs the exports of the paper's Model 1 and Model 2 fits to the
// default device: one fitted break moves by up to ±0.05 V, one
// coefficient of one piece moves by up to ±1e-5 of the charge scale
// |qsU(b₀)|, and N0 scales by a factor in [0.5, 1.5]. The coefficient
// may be any up to the cubic term, the zero tail's included, so many
// inputs exceed their region's degree and must be rejected. FromData
// must never panic. Every model it accepts must, at a bias with VG and
// VDS in [0, 0.8] V, either fail with an error wrapping
// rootfind.ErrBadBracket or return a VSC whose eq. (7) residual,
// through the exported QS and QD, is within solveTol — or, for a root
// in a sub-tolerance jump at a break, changes sign within solveTol of
// it. Seeds: both exports unperturbed, and jumpArtifact's step at its
// gate voltage.
func FuzzFromData(f *testing.F) {
	var exports [2]ModelData
	var scales [2]float64
	for i, model2 := range []bool{false, true} {
		m := fuzzFit(f, 300, -0.32, model2)
		exports[i] = m.Export()
		scales[i] = math.Abs(m.qsU.At(m.qsU.Breaks[0]))
	}
	f.Add(false, uint8(0), 0.0, uint8(0), uint8(0), 0.0, 0.0, 0.5, 0.4)
	f.Add(true, uint8(0), 0.0, uint8(0), uint8(0), 0.0, 0.0, 0.5, 0.4)
	_, vg := jumpArtifact(f)
	f.Add(false, uint8(0), 0.0, uint8(1), uint8(0), -0.5e-6, 0.0, vg, 0.0)

	f.Fuzz(func(t *testing.T, model2 bool, brk uint8, db float64, piece, coef uint8, dc, dn0, vg, vds float64) {
		k := 0
		if model2 {
			k = 1
		}
		d := cloneData(exports[k])
		d.BreaksU[int(brk)%len(d.BreaksU)] += foldInto(db, -0.05, 0.05)
		p := &d.Pieces[int(piece)%len(d.Pieces)]
		c := int(coef) % 4
		for len(*p) <= c {
			*p = append(*p, 0)
		}
		(*p)[c] += foldInto(dc, -1e-5, 1e-5) * scales[k]
		d.N0 *= 1 + foldInto(dn0, -0.5, 0.5)
		m, err := FromData(d)
		if err != nil {
			return
		}

		b := fettoy.Bias{VG: foldInto(vg, 0, 0.8), VD: foldInto(vds, 0, 0.8)}
		v, err := m.SolveVSC(b)
		if err != nil {
			if !errors.Is(err, rootfind.ErrBadBracket) {
				t.Fatalf("%+v: SolveVSC error %v does not wrap rootfind.ErrBadBracket", b, err)
			}
			return
		}
		dev := m.Device()
		residual := func(vsc float64) float64 {
			return vsc + dev.AlphaG*b.VG + dev.AlphaD*b.VD - (m.QS(vsc)+m.QD(vsc, b.VD))/m.csigma
		}
		if res := residual(v); math.Abs(res) > solveTol && !(residual(v-solveTol) <= 0 && residual(v+solveTol) >= 0) {
			t.Fatalf("%+v: eq. (7) residual %.3g V at VSC %.17g, with no sign change within %g V", b, res, v, solveTol)
		}
	})
}
