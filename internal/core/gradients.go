package core

import (
	"cntfet/internal/fermi"
	"cntfet/internal/fettoy"
)

// Conductances solves the operating point in closed form and returns
// the drain current with its analytic small-signal parameters
// gm = ∂IDS/∂VG and gds = ∂IDS/∂VD (source fixed). The implicit
// derivative of the piecewise self-consistent equation only needs the
// polynomial slopes of the fitted charge curve, so the whole
// computation stays allocation-free — this is what makes the model
// cheap inside a circuit simulator's Jacobian assembly, not just in
// plain IV sweeps.
func (m *Model) Conductances(b fettoy.Bias) (ids, gm, gds float64, err error) {
	vsc, err := m.SolveVSC(b)
	if err != nil {
		return 0, 0, 0, err
	}
	vds := b.VD - b.VS

	// F(V) = V + ulEff - (P(V) + P(V+vds))/CΣ with P the fitted qNS.
	// ∂F/∂V = 1 - (P'(V) + P'(V+vds))/CΣ; P is decreasing so both
	// slope terms add positively.
	dpS := m.qsSlope(vsc)
	dpD := m.qsSlope(vsc + vds)
	d := 1 - (dpS+dpD)/m.csigma
	dVdVG := -m.dev.AlphaG / d
	// ∂F/∂VD = αD - P'(V+vds)/CΣ (vds carries the VD dependence).
	dVdVD := -(m.dev.AlphaD - dpD/m.csigma) / d

	ids = m.CurrentAtVSC(vsc, b)
	usf := m.dev.EF - vsc
	udf := usf - vds
	var dIdV, dIdVD float64
	for _, band := range m.bands {
		deg := float64(band.Degeneracy) / 2
		occS := fermi.DF0((usf - band.EMin) / m.kT)
		occD := fermi.DF0((udf - band.EMin) / m.kT)
		dIdV += deg * (-occS + occD)
		dIdVD += deg * occD
	}
	dIdV *= m.i0 / m.kT
	dIdVD *= m.i0 / m.kT

	gm = dIdV * dVdVG
	gds = dIdV*dVdVD + dIdVD
	return ids, gm, gds, nil
}

// qsSlope evaluates the derivative of the fitted charge curve at
// VSC = x from the cached cubic coefficients.
func (m *Model) qsSlope(x float64) float64 { return m.pieceAt(x).deriv(x) }
