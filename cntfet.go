// Package cntfet is a circuit-level modelling library for ballistic
// carbon-nanotube field-effect transistors, reproducing Kazmierski,
// Zhou and Al-Hashimi, "Efficient circuit-level modelling of ballistic
// CNT using piecewise non-linear approximation of mobile charge
// density" (DATE 2008).
//
// Two model families share one interface:
//
//   - the Reference model — the full ballistic transport theory
//     (Rahman et al. 2003, as implemented by the FETToy script): state
//     densities by numerical Fermi–Dirac integration and the
//     self-consistent voltage equation solved by Newton–Raphson; and
//   - the Piecewise models — the paper's contribution: the mobile
//     charge density approximated by C¹ piecewise polynomials of degree
//     ≤ 3 (Model 1: linear/quadratic/zero; Model 2:
//     linear/quadratic/cubic/zero), which makes the self-consistent
//     equation solvable in closed form and accelerates drain-current
//     evaluation by roughly three orders of magnitude at percent-level
//     accuracy.
//
// Quick start:
//
//	dev := cntfet.DefaultDevice()
//	fast, err := cntfet.NewModel2(dev)   // fits the charge curve once
//	if err != nil { ... }
//	ids, err := fast.IDS(cntfet.Bias{VG: 0.6, VD: 0.6})
//
// The internal packages build up the substrates (band structure,
// quadrature, root finding, polynomial fitting, a SPICE-like circuit
// simulator); this package is the supported public surface.
package cntfet

import (
	"context"

	"cntfet/internal/core"
	"cntfet/internal/device"
	"cntfet/internal/fettoy"
	"cntfet/internal/sweep"
)

// Device aliases the transistor parameter set. Voltages are in volts,
// energies in eV, lengths in metres, temperatures in kelvin.
type Device = fettoy.Device

// Bias is one operating point (source-referenced).
type Bias = fettoy.Bias

// OperatingPoint is a solved bias point: self-consistent voltage,
// current and terminal charges.
type OperatingPoint = fettoy.OperatingPoint

// GateGeometry selects the insulator electrostatics.
type GateGeometry = fettoy.GateGeometry

// Gate geometries.
const (
	Coaxial = fettoy.Coaxial
	Planar  = fettoy.Planar
)

// Reference is the full theoretical model (the accuracy and cost
// baseline).
type Reference = fettoy.Model

// ChargeTable tabulates the reference model's state-density integral
// for interpolated reuse; attach one with Reference.EnableTable to
// serve sweep Newton iterations without re-integrating.
type ChargeTable = fettoy.ChargeTable

// TableOptions tunes a ChargeTable (range, accuracy bound, grid caps).
type TableOptions = fettoy.TableOptions

// Piecewise is the paper's fast closed-form model.
type Piecewise = core.Model

// Spec describes a piecewise region structure.
type Spec = core.Spec

// FitOptions tunes the charge-curve fit.
type FitOptions = core.FitOptions

// FitQuality reports charge-fit accuracy.
type FitQuality = core.FitQuality

// Curve is one IDS(VDS) sweep at fixed VG.
type Curve = sweep.Curve

// Transistor is the interface both model families implement: the core
// capability set of internal/device (IDS plus the full operating
// point). Optional capabilities — warm start, batched rows, analytic
// gradients, cancellable pre-build — are part of the same family; see
// internal/device for discovery by type assertion.
type Transistor = device.Device

// Compile-time interface checks.
var (
	_ Transistor = (*Reference)(nil)
	_ Transistor = (*Piecewise)(nil)
)

// DefaultDevice returns the paper's figures-2-to-9 device: FETToy's
// nominal 1 nm tube under a coaxial 1.5 nm ZrO2 gate, EF = -0.32 eV,
// T = 300 K.
func DefaultDevice() Device { return fettoy.Default() }

// JaveyDevice returns the experimental device of section VI
// (d = 1.6 nm, tox = 50 nm back gate, EF = -0.05 eV).
func JaveyDevice() Device { return fettoy.Javey() }

// NewReference builds the theoretical model for a device.
func NewReference(dev Device) (*Reference, error) { return fettoy.New(dev) }

// Model1Spec returns the paper's three-piece region structure.
func Model1Spec() Spec { return core.Model1Spec() }

// Model2Spec returns the paper's four-piece region structure.
func Model2Spec() Spec { return core.Model2Spec() }

// NewModel1 fits the paper's Model 1 (linear/quadratic/zero) to a
// device. The construction samples the slow theory once; evaluation is
// closed-form afterwards.
func NewModel1(dev Device) (*Piecewise, error) {
	ref, err := fettoy.New(dev)
	if err != nil {
		return nil, err
	}
	return core.Model1(ref)
}

// NewModel2 fits the paper's Model 2 (linear/quadratic/cubic/zero).
func NewModel2(dev Device) (*Piecewise, error) {
	ref, err := fettoy.New(dev)
	if err != nil {
		return nil, err
	}
	return core.Model2(ref)
}

// NewPiecewise fits a custom region structure — the knob the paper's
// section IV leaves open ("more sections for an even higher accuracy
// but at some computational expense").
func NewPiecewise(dev Device, spec Spec, opt FitOptions) (*Piecewise, error) {
	ref, err := fettoy.New(dev)
	if err != nil {
		return nil, err
	}
	return core.Fit(ref, spec, opt)
}

// FitFrom fits a piecewise model reusing an existing reference model
// (avoids rebuilding the theory when both are needed, as every
// benchmark does).
func FitFrom(ref *Reference, spec Spec, opt FitOptions) (*Piecewise, error) {
	return core.Fit(ref, spec, opt)
}

// Quality scores a fitted model against its reference.
func Quality(ref *Reference, m *Piecewise, opt FitOptions) FitQuality {
	return core.Quality(ref, m, opt)
}

// Trace sweeps one IDS(VDS) curve at fixed gate voltage vg; vg and
// the vds grid are in volts (V).
func Trace(m Transistor, vg float64, vds []float64) (Curve, error) {
	return sweep.Trace(m, vg, vds)
}

// Family sweeps one curve per gate voltage on a shared VDS grid; both
// the vgs and vds grids are in volts (V). workers <= 0 uses GOMAXPROCS;
// workers == 1 sweeps each VDS row as one batch on a single goroutine,
// which keeps the reference model's warm-start continuation unbroken
// along every row. The context cancels the sweep between chunks. The
// returned curves share one read-only copy of vds as their VDS (each
// owns its IDS), so treat VDS as read-only; vds itself stays the
// caller's to reuse.
func Family(ctx context.Context, m Transistor, vgs, vds []float64, workers int) ([]Curve, error) {
	fam := make([]Curve, 0, len(vgs))
	if err := sweep.FamilyParallelTo(ctx, m, vgs, vds, workers, sweep.Collect(&fam)); err != nil {
		return nil, err
	}
	return fam, nil
}

// RMSPercent computes the paper's per-curve error metric
// 100·sqrt(mean((I_model − I_ref)²))/mean(I_ref).
func RMSPercent(model, ref Curve) (float64, error) {
	return sweep.RMSPercent(model, ref)
}

// CompareFamilies returns RMSPercent per gate voltage (the body of
// tables II-IV).
func CompareFamilies(model, ref []Curve) ([]float64, error) {
	return sweep.CompareFamilies(model, ref)
}
