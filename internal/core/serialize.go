package core

import (
	"encoding/json"
	"fmt"
	"math"

	"cntfet/internal/fettoy"
	"cntfet/internal/poly"
)

// ModelData is the portable form of a fitted piecewise model: enough
// to reconstruct evaluation exactly without refitting (and without the
// slow reference model). It serialises cleanly to JSON, and is what
// the VHDL-AMS exporter reads — the paper published its Model 2 as a
// VHDL-AMS entity through the Southampton validation suite, and this
// is the equivalent hand-off artifact.
type ModelData struct {
	// Spec is the region structure (breaks here are the nominal
	// spec values; BreaksU carries the fitted ones).
	Spec Spec `json:"spec"`
	// Device is the parameter set the model was fitted for.
	Device fettoy.Device `json:"device"`
	// BreaksU are the fitted region boundaries in u = VSC - EF/q.
	BreaksU []float64 `json:"breaks_u"`
	// Pieces are the fitted q·NS polynomial coefficients per region
	// in u-space, constant term first.
	Pieces [][]float64 `json:"pieces"`
	// N0 is the equilibrium electron density in states/m.
	N0 float64 `json:"n0"`
}

// Export captures the fitted model.
func (m *Model) Export() ModelData {
	pieces := make([][]float64, len(m.qsU.Pieces))
	for i, p := range m.qsU.Pieces {
		pieces[i] = append([]float64(nil), p.Coef...)
	}
	return ModelData{
		Spec:    m.spec,
		Device:  m.dev,
		BreaksU: m.BreaksU(),
		Pieces:  pieces,
		N0:      m.n0,
	}
}

// MarshalJSON lets a *Model be embedded directly in JSON documents.
func (m *Model) MarshalJSON() ([]byte, error) {
	return json.Marshal(m.Export())
}

// FromData reconstructs an evaluable model from exported data. The
// same validation as fitting applies (C¹ at constrained breaks, device
// sanity, one fitted break per spec break, no piece above its region's
// degree, a zero tail that is zero, finite numbers throughout), so a
// corrupted artifact is rejected rather than silently producing
// garbage currents — a NaN passes every comparison, and would
// otherwise fail each later solve instead of the load.
func FromData(d ModelData) (*Model, error) {
	if err := d.Device.Validate(); err != nil {
		return nil, err
	}
	if err := d.Spec.Validate(); err != nil {
		return nil, err
	}
	if len(d.BreaksU) != len(d.Spec.Breaks) {
		return nil, fmt.Errorf("core: spec %q has %d breaks, artifact has %d",
			d.Spec.Name, len(d.Spec.Breaks), len(d.BreaksU))
	}
	if len(d.Pieces) != len(d.BreaksU)+1 {
		return nil, fmt.Errorf("core: %d pieces need %d breaks, got %d",
			len(d.Pieces), len(d.Pieces)-1, len(d.BreaksU))
	}
	for i, u := range d.BreaksU {
		if !finite(u) {
			return nil, fmt.Errorf("core: break %d is %g", i, u)
		}
	}
	pieces := make([]poly.Poly, len(d.Pieces))
	for i, c := range d.Pieces {
		for j, v := range c {
			if !finite(v) {
				return nil, fmt.Errorf("core: piece %d coefficient %d is %g", i, j, v)
			}
		}
		pieces[i] = poly.New(c...)
		maxDeg := -1 // the fixed zero tail
		if i < len(d.Spec.Degrees) {
			maxDeg = d.Spec.Degrees[i]
		}
		if deg := pieces[i].Degree(); deg > maxDeg {
			return nil, fmt.Errorf("core: piece %d has degree %d, spec %q allows %d", i, deg, d.Spec.Name, maxDeg)
		}
	}
	pw, err := poly.NewPiecewise(d.BreaksU, pieces)
	if err != nil {
		return nil, err
	}
	if !finite(d.N0) || d.N0 < 0 {
		return nil, fmt.Errorf("core: equilibrium density %g must be finite and non-negative", d.N0)
	}
	return newModel(d.Device, d.Spec, pw, d.N0)
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// UnmarshalData parses a JSON artifact produced by Export/MarshalJSON
// and reconstructs the model.
func UnmarshalData(raw []byte) (*Model, error) {
	var d ModelData
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("core: parsing model data: %w", err)
	}
	return FromData(d)
}
