// Package units collects the physical constants and small numeric helpers
// shared by every other package in the library.
//
// All quantities are SI unless the name says otherwise. Energies cross the
// eV/J boundary constantly in device modelling, so explicit conversion
// helpers are provided instead of ad-hoc multiplications at call sites.
package units

import "math"

// CODATA 2018 values (truncated to double precision).
const (
	// Q is the elementary charge in coulomb.
	Q = 1.602176634e-19
	// KB is the Boltzmann constant in J/K.
	KB = 1.380649e-23
	// HBar is the reduced Planck constant in J·s.
	HBar = 1.054571817e-34
	// H is the Planck constant in J·s.
	H = 6.62607015e-34
	// Eps0 is the vacuum permittivity in F/m.
	Eps0 = 8.8541878128e-12
	// MElectron is the electron rest mass in kg.
	MElectron = 9.1093837015e-31
)

// Carbon-nanotube tight-binding parameters (Saito/Dresselhaus
// conventions, the same values used by FETToy).
const (
	// ACC is the carbon-carbon bond length in metres (0.142 nm).
	ACC = 0.142e-9
	// ALattice is the graphene lattice constant sqrt(3)*ACC in metres.
	ALattice = 0.246e-9
	// Gamma is the C-C tight-binding hopping energy in eV (V_ppi).
	Gamma = 3.0
	// VFermi is the graphene Fermi velocity 3*ACC*Gamma/(2*hbar) in m/s.
	VFermi = 3.0 * ACC * Gamma * Q / (2.0 * HBar)
)

// EV converts an energy in electron-volts to joules.
func EV(ev float64) float64 { return ev * Q }

// ToEV converts an energy in joules to electron-volts.
func ToEV(j float64) float64 { return j / Q }

// KT returns the thermal energy k*T in electron-volts for a temperature
// in kelvin. At 300 K this is about 0.02585 eV.
func KT(tempK float64) float64 { return KB * tempK / Q }

// Room is the conventional room temperature in kelvin.
const Room = 300.0

// Close reports whether a and b agree within both a relative tolerance
// rel and an absolute tolerance abs. It treats NaN as never close and
// equal infinities as close.
func Close(a, b, rel, abs float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	if a == b { //lint:allow floatcmp exact equality also covers equal infinities
		return true
	}
	d := math.Abs(a - b)
	if d <= abs {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*m
}

// CloseRel is Close with a zero absolute tolerance.
func CloseRel(a, b, rel float64) bool { return Close(a, b, rel, 0) }

// Clamp limits x to the closed interval [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// Linspace returns n evenly spaced points from lo to hi inclusive.
// n must be at least 2 for a nondegenerate range; n==1 returns [lo].
func Linspace(lo, hi float64, n int) []float64 {
	if n <= 0 {
		return nil
	}
	return LinspaceInto(make([]float64, n), lo, hi)
}

// LinspaceInto fills out with len(out) evenly spaced points from lo to
// hi inclusive, the values Linspace(lo, hi, len(out)) returns, and
// returns out. It lets a caller reuse one grid buffer.
func LinspaceInto(out []float64, lo, hi float64) []float64 {
	n := len(out)
	if n == 0 {
		return out
	}
	if n == 1 {
		out[0] = lo
		return out
	}
	step := (hi - lo) / float64(n-1)
	for i := range out {
		out[i] = lo + float64(i)*step
	}
	out[n-1] = hi // avoid accumulated rounding at the endpoint
	return out
}

// Logspace returns n points logarithmically spaced from lo to hi
// inclusive. Both endpoints must be positive.
func Logspace(lo, hi float64, n int) []float64 {
	if lo <= 0 || hi <= 0 {
		panic("units: Logspace endpoints must be positive")
	}
	pts := Linspace(math.Log(lo), math.Log(hi), n)
	for i, p := range pts {
		pts[i] = math.Exp(p)
	}
	if n > 1 {
		pts[n-1] = hi
	}
	return pts
}
