package cntfet

import (
	"context"
	"io"

	"cntfet/internal/circuit"
	"cntfet/internal/logic"
	"cntfet/internal/netlist"
	"cntfet/internal/variation"
)

// This file is the public surface of the circuit-level layer: the MNA
// simulator, the netlist frontend, the CNT logic-gate library and the
// variability tooling. Everything is exposed through type aliases so
// downstream users get the full functionality without reaching into
// internal packages.

// Circuit is a netlist of elements solvable for DC operating points,
// DC sweeps, transients and AC small-signal responses.
type Circuit = circuit.Circuit

// NewCircuit returns an empty circuit.
func NewCircuit() *Circuit { return circuit.New() }

// Ground is the reference node name.
const Ground = circuit.Ground

// Circuit element types.
type (
	// Resistor is a linear resistor.
	Resistor = circuit.Resistor
	// CapacitorElem is a linear capacitor (named to avoid clashing
	// with device capacitance accessors).
	CapacitorElem = circuit.Capacitor
	// InductorElem is a linear inductor.
	InductorElem = circuit.Inductor
	// VSource is an independent voltage source.
	VSource = circuit.VSource
	// ISource is an independent current source.
	ISource = circuit.ISource
	// DiodeElem is a Shockley diode.
	DiodeElem = circuit.Diode
	// CNTFETElem is the three-terminal CNT transistor element; back it
	// with a Reference or Piecewise model.
	CNTFETElem = circuit.CNTFET
	// VCCS is a voltage-controlled current source.
	VCCS = circuit.VCCS
	// VCVS is a voltage-controlled voltage source.
	VCVS = circuit.VCVS
)

// Waveforms for independent sources.
type (
	// DCWave is a constant source value.
	DCWave = circuit.DC
	// PulseWave is the SPICE PULSE stimulus.
	PulseWave = circuit.Pulse
	// SinWave is the SPICE SIN stimulus.
	SinWave = circuit.Sin
)

// Device polarities for CNTFETElem.
const (
	NType = circuit.NType
	PType = circuit.PType
)

// Analysis options and results.
type (
	// DCOptions tunes Newton operating-point solves.
	DCOptions = circuit.DCOptions
	// TranOptions configures fixed-step transient analysis.
	TranOptions = circuit.TranOptions
	// CircuitSolution is one solved bias/time point.
	CircuitSolution = circuit.Solution
	// ACPoint is one small-signal frequency point.
	ACPoint = circuit.ACPoint
)

// DecadeFrequencies builds the standard logarithmic AC grid.
func DecadeFrequencies(fstart, fstop float64, pointsPerDecade int) ([]float64, error) {
	return circuit.DecadeFrequencies(fstart, fstop, pointsPerDecade)
}

// Deck is a parsed SPICE-flavoured netlist (see internal/netlist for
// the dialect).
type Deck = netlist.Deck

// ParseDeck parses netlist source text.
func ParseDeck(src string) (*Deck, error) { return netlist.Parse(src) }

// RunDeck parses a netlist and executes its analyses, writing tabular
// results to w — the programmatic equivalent of cmd/cntspice. ctx is
// checked between analyses.
func RunDeck(ctx context.Context, src string, w io.Writer) error {
	d, err := netlist.Parse(src)
	if err != nil {
		return err
	}
	return d.Run(ctx, w)
}

// LogicLibrary builds complementary CNT gates (inverter, NAND2, NOR2,
// chains, ring oscillators) and ships the VTC/delay/frequency
// metrology in the logic package.
type LogicLibrary = logic.Library

// VTCMetrics are static inverter figures of merit.
type VTCMetrics = logic.VTCMetrics

// MeasureVTC sweeps an input source from 0 to the supply voltage vdd
// in volts (V), in increments of step (V), and extracts VTC metrics.
func MeasureVTC(c *Circuit, inSource, outNode string, vdd, step float64) (VTCMetrics, error) {
	return logic.MeasureVTC(c, inSource, outNode, vdd, step)
}

// PropagationDelay measures 50%-to-50% delays from a transient run;
// vdd is the supply voltage in volts (V) defining the 50% threshold.
func PropagationDelay(sols []*CircuitSolution, inNode, outNode string, vdd float64) (tpHL, tpLH float64) {
	return logic.PropagationDelay(sols, inNode, outNode, vdd)
}

// OscillationFrequency estimates a ring oscillator's frequency from a
// transient run; vdd is the supply voltage in volts (V), settle the
// start-up interval (s) excluded from the measurement.
func OscillationFrequency(sols []*CircuitSolution, node string, vdd, settle float64) (float64, error) {
	return logic.OscillationFrequency(sols, node, vdd, settle)
}

// SwitchingEnergy integrates the supply energy drawn over a transient
// run (the dynamic-power figure of merit); vdd is the supply voltage
// in volts (V).
func SwitchingEnergy(sols []*CircuitSolution, vddSource string, vdd float64) float64 {
	return logic.SwitchingEnergy(sols, vddSource, vdd)
}

// Variability analysis.
type (
	// VariationSpread is the per-device parameter dispersion.
	VariationSpread = variation.Spread
	// VariationResult summarises a Monte Carlo run.
	VariationResult = variation.Result
)

// MonteCarloIDS draws n device variants and returns the drain-current
// distribution at the bias, evaluated with the fast Model 2. The
// context cancels the run between draws.
func MonteCarloIDS(ctx context.Context, dev Device, spread VariationSpread, bias Bias, n int, seed int64) (VariationResult, error) {
	return variation.MonteCarloIDS(ctx, dev, spread, bias, n, seed)
}

// EFSensitivity estimates d(IDS)/d(EF) via the refit-free Fermi-level
// shift; dEF is the shift applied to the Fermi level, in
// electronvolts (eV).
func EFSensitivity(dev Device, bias Bias, dEF float64) (float64, error) {
	return variation.Sensitivity(dev, bias, dEF)
}
