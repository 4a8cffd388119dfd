// Package fettoy is a from-scratch Go implementation of the theoretical
// ballistic CNT transistor model of Rahman, Guo, Datta and Lundstrom
// ("Theory of ballistic nanotransistors", IEEE TED 2003), the theory the
// FETToy reference script implements and the paper benchmarks against.
//
// It is deliberately the *slow, exact* path: source/drain state
// densities come from numerical integration of the nanotube density of
// states against the Fermi distribution, and the self-consistent
// voltage equation is solved by safeguarded Newton–Raphson, evaluating
// those integrals at every iteration. The piecewise model in
// internal/core exists to replace exactly this cost.
//
// Unit conventions: terminal voltages in volts, energies in eV,
// temperatures in kelvin, charge densities in C/m of tube, capacitances
// in F/m, currents in amperes.
package fettoy

import (
	"errors"
	"fmt"

	"cntfet/internal/bandstruct"
	"cntfet/internal/units"
)

// GateGeometry selects the electrostatic model for the insulator
// capacitance.
type GateGeometry int

const (
	// Coaxial is a wrap-around gate (FETToy's geometry).
	Coaxial GateGeometry = iota
	// Planar is a tube over a conducting plane (back-gated devices,
	// e.g. the Javey 2005 experimental transistor).
	Planar
)

func (g GateGeometry) String() string {
	switch g {
	case Coaxial:
		return "coaxial"
	case Planar:
		return "planar"
	default:
		return fmt.Sprintf("GateGeometry(%d)", int(g))
	}
}

// Device collects the physical parameters of one ballistic CNT FET.
type Device struct {
	// Diameter is the tube diameter in metres.
	Diameter float64
	// Tox is the gate insulator thickness in metres.
	Tox float64
	// Kappa is the insulator relative permittivity.
	Kappa float64
	// Geometry selects the gate electrostatics.
	Geometry GateGeometry
	// EF is the source Fermi level in eV measured from the first
	// conduction subband edge (negative below the band).
	EF float64
	// T is the lattice temperature in kelvin.
	T float64
	// AlphaG and AlphaD are the gate and drain control parameters
	// CG/CΣ and CD/CΣ (FETToy's alphag, alphad).
	AlphaG, AlphaD float64
	// Subbands is how many conduction subbands participate in charge
	// and current; the paper (like most compact models) uses 1.
	Subbands int
	// Transmission is the channel transmission coefficient in (0, 1]:
	// the simplest non-ballistic correction (Lundstrom backscattering,
	// T = λ/(λ+ℓ)), scaling the Landauer current while leaving the
	// top-of-barrier charge balance untouched. The paper's models are
	// ballistic (T = 1) and name this extension as future work; the
	// zero value means 1.
	Transmission float64
}

// TransmissionOrBallistic resolves the transmission coefficient,
// mapping the zero value to ballistic transport.
func (d Device) TransmissionOrBallistic() float64 {
	if d.Transmission == 0 { //lint:allow floatcmp zero value maps to ballistic transport
		return 1
	}
	return d.Transmission
}

// Default returns the device used throughout the paper's figures 2-9:
// FETToy's nominal ballistic CNFET (Rahman et al. 2003) — a 1 nm tube
// under a coaxial 1.5 nm ZrO2 gate (κ = 25) — with the paper's
// EF = -0.32 eV at T = 300 K. The strong gate makes CΣ large relative
// to the quantum capacitance, which is what lets even the three-piece
// charge approximation track the theory at percent level.
func Default() Device {
	return Device{
		Diameter: 1e-9,
		Tox:      1.5e-9,
		Kappa:    25,
		Geometry: Coaxial,
		EF:       -0.32,
		T:        units.Room,
		AlphaG:   0.88,
		AlphaD:   0.035,
		Subbands: 1,
	}
}

// Javey returns the experimental device of section VI (Javey et al.,
// Nano Letters 2005): K-doped n-type tube, back gate, d = 1.6 nm,
// tox = 50 nm, EF = -0.05 eV, measured at 300 K.
func Javey() Device {
	d := Default()
	d.Diameter = 1.6e-9
	d.Tox = 50e-9
	d.Kappa = 3.9 // SiO2 back-gate, not the nominal device's ZrO2
	d.Geometry = Planar
	d.EF = -0.05
	return d
}

// Validate reports the first problem with the parameter set, or nil.
func (d Device) Validate() error {
	switch {
	case d.Diameter <= 0:
		return errors.New("fettoy: diameter must be positive")
	case d.Tox <= 0:
		return errors.New("fettoy: oxide thickness must be positive")
	case d.Kappa <= 0:
		return errors.New("fettoy: dielectric constant must be positive")
	case d.T <= 0:
		return errors.New("fettoy: temperature must be positive")
	case d.AlphaG <= 0 || d.AlphaG > 1:
		return fmt.Errorf("fettoy: alphaG = %g outside (0,1]", d.AlphaG)
	case d.AlphaD < 0 || d.AlphaD >= 1:
		return fmt.Errorf("fettoy: alphaD = %g outside [0,1)", d.AlphaD)
	case d.AlphaG+d.AlphaD > 1:
		return fmt.Errorf("fettoy: alphaG+alphaD = %g exceeds 1", d.AlphaG+d.AlphaD)
	case d.Subbands < 1:
		return errors.New("fettoy: at least one subband required")
	case d.Transmission < 0 || d.Transmission > 1:
		return fmt.Errorf("fettoy: transmission %g outside (0,1]", d.Transmission)
	case d.Geometry != Coaxial && d.Geometry != Planar:
		return fmt.Errorf("fettoy: unknown geometry %d", d.Geometry)
	}
	return nil
}

// CG returns the insulator (gate) capacitance per unit length in F/m.
func (d Device) CG() float64 {
	if d.Geometry == Planar {
		return bandstruct.PlanarGateCapacitance(d.Diameter, d.Tox, d.Kappa)
	}
	return bandstruct.CoaxialGateCapacitance(d.Diameter, d.Tox, d.Kappa)
}

// CSigma returns the total terminal capacitance CΣ = CG/αG in F/m.
func (d Device) CSigma() float64 { return d.CG() / d.AlphaG }

// CD returns the drain capacitance αD·CΣ in F/m.
func (d Device) CD() float64 { return d.AlphaD * d.CSigma() }

// CS returns the source capacitance CΣ-CG-CD in F/m.
func (d Device) CS() float64 { return d.CSigma() - d.CG() - d.CD() }

// KT returns the thermal energy in eV.
func (d Device) KT() float64 { return units.KT(d.T) }

// Bands returns the conduction subband ladder participating in
// transport, with minima in eV measured from the *first* subband edge
// (the first entry is always 0).
func (d Device) Bands() []bandstruct.Subband {
	bands := bandstruct.Ladder(d.Diameter, d.Subbands)
	e1 := bands[0].EMin
	for i := range bands {
		bands[i].EMin -= e1
	}
	return bands
}

// E1 returns the first subband minimum in eV from mid-gap (half the
// band gap).
func (d Device) E1() float64 { return bandstruct.HalfGap(d.Diameter) }
