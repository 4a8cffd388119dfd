// Package core implements the paper's contribution: piecewise
// non-linear approximation of the non-equilibrium mobile charge density
// of a ballistic CNT transistor, enabling a closed-form solution of the
// self-consistent voltage equation and drain-current evaluation three
// orders of magnitude faster than the theoretical (FETToy-style) model.
//
// The charge curve QS(VSC) is approximated by polynomials of degree at
// most 3 over regions of the normalised variable u = VSC − EF/q:
//
//	Model 1 (paper §IV, fig. 2): linear | quadratic | zero
//	                             with breaks at u = −0.08 V and +0.08 V.
//	Model 2 (paper §IV, fig. 3): linear | quadratic | cubic | zero
//	                             with breaks at −0.28, −0.03, +0.12 V.
//
// Region boundaries are the paper's (obtained numerically by RMS
// minimisation); coefficients are fitted per device with continuity of
// value and first derivative. Because every region is degree ≤ 3, the
// self-consistent equation restricted to a region is a cubic with a
// closed-form root — no Newton–Raphson, no Fermi–Dirac quadrature.
package core

import (
	"fmt"

	"cntfet/internal/poly"
)

// Spec describes the region structure of a piecewise charge model in
// the normalised variable u = VSC − EF/q (volts).
type Spec struct {
	// Name labels the spec in reports ("Model 1", "Model 2").
	Name string
	// Breaks are the interior region boundaries in u, ascending.
	Breaks []float64
	// Degrees lists the polynomial degree of each non-tail region;
	// len(Degrees) = len(Breaks) when ZeroTail is true (the final
	// region is the fixed zero polynomial), len(Breaks)+1 otherwise.
	Degrees []int
	// ZeroTail pins the last region to Q = 0 (both models do).
	ZeroTail bool
	// TailC1 additionally forces a zero first derivative where the
	// curve enters the zero region. Off by default: the true charge
	// decays exponentially there, and burning a derivative constraint
	// on the boundary costs Model 1 nearly all of its freedom (it
	// would collapse to a single fitted parameter). The ablation bench
	// quantifies the difference.
	TailC1 bool
}

// continuityOrders appends the per-break derivative-continuity orders
// to dst and returns the result: C1 at joins between free polynomials,
// C0 (or C1 with TailC1) at the boundary of the fixed zero tail.
func (s Spec) continuityOrders(dst []int) []int {
	for range s.Breaks {
		dst = append(dst, 1)
	}
	if s.ZeroTail && !s.TailC1 {
		dst[len(dst)-1] = 0
	}
	return dst
}

// Model1Spec returns the paper's three-piece model: linear for
// u ≤ −0.08 V, quadratic for −0.08 < u < 0.08, zero above.
func Model1Spec() Spec {
	return Spec{
		Name:     "Model 1",
		Breaks:   []float64{-0.08, 0.08},
		Degrees:  []int{1, 2},
		ZeroTail: true,
	}
}

// Model2Spec returns the paper's four-piece model: linear for
// u ≤ −0.28 V, quadratic to −0.03 V, cubic to +0.12 V, zero above.
func Model2Spec() Spec {
	return Spec{
		Name:     "Model 2",
		Breaks:   []float64{-0.28, -0.03, 0.12},
		Degrees:  []int{1, 2, 3},
		ZeroTail: true,
	}
}

// maxBreaks bounds a spec's breaks so the closed-form solve's merged
// source and drain breakpoints fit its fixed stack buffer. The paper's
// models use 2 and 3.
const maxBreaks = 8

// Validate reports the first structural problem with the spec, or nil.
func (s Spec) Validate() error {
	want := len(s.Breaks) + 1
	if s.ZeroTail {
		want = len(s.Breaks)
	}
	if len(s.Degrees) != want {
		return fmt.Errorf("core: spec %q has %d degrees, want %d", s.Name, len(s.Degrees), want)
	}
	for i := 1; i < len(s.Breaks); i++ {
		if !(s.Breaks[i] > s.Breaks[i-1]) {
			return fmt.Errorf("core: spec %q breaks not ascending", s.Name)
		}
	}
	for i, d := range s.Degrees {
		if d < 0 || d > 3 {
			return fmt.Errorf("core: spec %q region %d degree %d outside [0,3] — closed-form solve impossible", s.Name, i, d)
		}
	}
	if len(s.Breaks) == 0 {
		return fmt.Errorf("core: spec %q needs at least one break", s.Name)
	}
	if len(s.Breaks) > maxBreaks {
		return fmt.Errorf("core: spec %q has %d breaks, at most %d supported", s.Name, len(s.Breaks), maxBreaks)
	}
	return nil
}

// zeroPiece is the fixed zero tail in the fitting layer's form.
var zeroPiece = poly.PieceSpec{Fixed: &poly.Poly{}}

// pieceSpecs appends the spec in the fitting layer's form to dst and
// returns the result.
func (s Spec) pieceSpecs(dst []poly.PieceSpec) []poly.PieceSpec {
	for _, d := range s.Degrees {
		dst = append(dst, poly.PieceSpec{Degree: d})
	}
	if s.ZeroTail {
		dst = append(dst, zeroPiece)
	}
	return dst
}

// Regions returns a human-readable description of each region, used by
// the figure-2/3 regenerators.
func (s Spec) Regions() []string {
	names := map[int]string{0: "constant", 1: "linear", 2: "quadratic", 3: "3rd order"}
	var out []string
	for i, d := range s.Degrees {
		lo, hi := "-inf", fmt.Sprintf("%+.2f", s.Breaks[i])
		if i > 0 {
			lo = fmt.Sprintf("%+.2f", s.Breaks[i-1])
		}
		if i == len(s.Degrees)-1 && !s.ZeroTail {
			hi = "+inf"
		}
		out = append(out, fmt.Sprintf("%s on (%s, %s]", names[d], lo, hi))
	}
	if s.ZeroTail {
		out = append(out, fmt.Sprintf("zero on (%+.2f, +inf)", s.Breaks[len(s.Breaks)-1]))
	}
	return out
}
