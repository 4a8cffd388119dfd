// Package sweep runs bias sweeps over transistor models and computes
// the paper's comparison metrics: families of IDS(VDS) curves at
// stepped gate voltages (figures 6-11) and the per-curve "average RMS
// error" grids of tables II-V.
package sweep

import (
	"fmt"
	"math"

	"cntfet/internal/device"
	"cntfet/internal/fettoy"
	"cntfet/internal/units"
)

// Curve is one IDS(VDS) sweep at a fixed gate voltage: VG and VDS in
// volts, IDS in amperes. It is also the wire form of a curve in the
// sweep service's JSON (server.Curve is this type).
//
// The curves of one family — from FamilyParallelTo, and so from
// Collect, cntfet.Family, engine results and streamed rows — share one
// read-only VDS grid: the family's own copy of the drain grid, never
// the caller's slice. Each curve owns its IDS. Treat VDS as read-only;
// an append to it copies (its capacity is its length), so it never
// writes into another curve's grid.
type Curve struct {
	VG  float64   `json:"vg"`
	VDS []float64 `json:"vds"`
	IDS []float64 `json:"ids"`
}

// Trace evaluates one curve on the given drain-voltage grid, one cold
// IDS call per point. Models are anything satisfying the core
// capability of internal/device. It is the per-point reference the
// family scheduler (FamilyParallelTo, which upgrades to the optional
// warm-start and batch capabilities by type assertion) is tested
// against, and the paper's Table I timing protocol.
func Trace(m device.Solver, vg float64, vds []float64) (Curve, error) {
	c := Curve{VG: vg, VDS: append([]float64(nil), vds...), IDS: make([]float64, len(vds))}
	for i, vd := range vds {
		ids, err := m.IDS(fettoy.Bias{VG: vg, VD: vd})
		if err != nil {
			return Curve{}, fmt.Errorf("sweep: VG=%g VDS=%g: %w", vg, vd, err)
		}
		c.IDS[i] = ids
	}
	return c, nil
}

// Grid returns the paper's standard VDS grid: 0 to 0.6 V in 61 steps.
func Grid() []float64 { return units.Linspace(0, 0.6, 61) }

// PaperGates returns the gate voltages of figures 6 and 7:
// 0.3 to 0.6 V in 0.05 V steps.
func PaperGates() []float64 { return units.Linspace(0.3, 0.6, 7) }

// TableGates returns the gate voltages of tables II-IV:
// 0.1 to 0.6 V in 0.1 V steps.
func TableGates() []float64 { return units.Linspace(0.1, 0.6, 6) }

// RMSPercent computes the paper's per-curve error metric between a
// model curve and a reference curve sharing the same grid:
// 100·sqrt(mean((I_m − I_r)²)) / mean(I_r).
func RMSPercent(model, ref Curve) (float64, error) {
	if len(model.IDS) != len(ref.IDS) {
		return 0, fmt.Errorf("sweep: curve lengths differ (%d vs %d)", len(model.IDS), len(ref.IDS))
	}
	if len(ref.IDS) == 0 {
		return 0, fmt.Errorf("sweep: empty curves")
	}
	var sum, mean float64
	for i := range ref.IDS {
		d := model.IDS[i] - ref.IDS[i]
		sum += d * d
		mean += ref.IDS[i]
	}
	n := float64(len(ref.IDS))
	mean /= n
	if mean <= 0 {
		return 0, fmt.Errorf("sweep: reference curve mean %g not positive", mean)
	}
	return 100 * math.Sqrt(sum/n) / mean, nil
}

// CompareFamilies returns the RMS percent error per gate voltage for a
// model family against a reference family (the body of tables II-IV).
func CompareFamilies(model, ref []Curve) ([]float64, error) {
	if len(model) != len(ref) {
		return nil, fmt.Errorf("sweep: family sizes differ (%d vs %d)", len(model), len(ref))
	}
	out := make([]float64, len(ref))
	for i := range ref {
		if model[i].VG != ref[i].VG { //lint:allow floatcmp families must share the exact VG grid
			return nil, fmt.Errorf("sweep: gate mismatch at %d: %g vs %g", i, model[i].VG, ref[i].VG)
		}
		e, err := RMSPercent(model[i], ref[i])
		if err != nil {
			return nil, err
		}
		out[i] = e
	}
	return out, nil
}

// MaxCurrent returns the largest current in a family, used to scale
// plots.
func MaxCurrent(fam []Curve) float64 {
	mx := 0.0
	for _, c := range fam {
		for _, i := range c.IDS {
			if i > mx {
				mx = i
			}
		}
	}
	return mx
}
