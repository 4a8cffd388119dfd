package core

import (
	"math"
	"testing"

	"cntfet/internal/fettoy"
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
// path must succeed without the generic fallback, agree with
// SolveVSCGeneric, and leave an eq. (7) residual within solveTol.
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
		gen, err := m.SolveVSCGeneric(b)
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
		d := m.qs.Deriv()
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
