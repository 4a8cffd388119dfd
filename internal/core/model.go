package core

import (
	"fmt"
	"math"

	"cntfet/internal/bandstruct"
	"cntfet/internal/fermi"
	"cntfet/internal/fettoy"
	"cntfet/internal/poly"
	"cntfet/internal/rootfind"
	"cntfet/internal/telemetry"
	"cntfet/internal/units"
)

// Model is the fast piecewise CNT transistor model. Construction costs
// one sampling pass over the slow theory (see Fit); every evaluation
// afterwards is pure closed-form polynomial arithmetic. A Model is safe
// for concurrent use.
type Model struct {
	dev  fettoy.Device
	spec Spec

	// qsU is the fitted q·NS curve in u-space (QS plus the equilibrium
	// constant, see Fit); its breaks are the final u-space region
	// boundaries (post-optimisation). It is immutable.
	qsU poly.Piecewise

	n0      float64 // equilibrium density, states/m
	qn0Half float64 // q·N0/2, C/m
	csigma  float64 // F/m
	kT      float64 // eV
	i0      float64 // current prefactor 2qkT/(πħ), A

	// bands caches the subband ladder (minima relative to the first
	// edge) so current evaluation does not rebuild it per call.
	bands []bandstruct.Subband

	// fastBreaks/fastCoef are the same curve on the absolute VSC axis
	// (u = VSC - EF), as fixed-size cubic coefficient arrays: the one
	// form QS, QD, their slopes and the closed-form solve evaluate.
	// The physical mobile charge is QS = qNS - qn0Half, with qNS the
	// curve at VSC (qsFast).
	fastBreaks []float64
	fastCoef   []cubic
}

func newModel(dev fettoy.Device, spec Spec, qsU poly.Piecewise, n0 float64) (*Model, error) {
	// The KKT fit enforces the requested continuity exactly up to
	// round-off; anything beyond that indicates a degenerate fit.
	// Value continuity holds at every break; slope continuity only at
	// the breaks the spec constrains (the zero-tail boundary is C0
	// unless TailC1 is set). Normalise the slope jump by the region
	// width so both tolerances live on the charge scale.
	scale := math.Abs(qsU.At(qsU.Breaks[0])) + 1e-30
	width := qsU.Breaks[len(qsU.Breaks)-1] - qsU.Breaks[0]
	if width <= 0 {
		width = 1
	}
	var buf [maxBreaks]int
	orders := spec.continuityOrders(buf[:0])
	for i, b := range qsU.Breaks {
		left, right := qsU.Pieces[i], qsU.Pieces[i+1]
		if c0 := math.Abs(right.At(b) - left.At(b)); c0 > 1e-6*scale {
			return nil, fmt.Errorf("core: fitted curve discontinuous at break %d (jump %g)", i, c0)
		}
		if orders[i] >= 1 {
			if c1 := math.Abs(right.DerivAt(b) - left.DerivAt(b)); c1*width > 1e-4*scale {
				return nil, fmt.Errorf("core: fitted curve slope jump %g at break %d", c1, i)
			}
		}
	}
	m := &Model{
		dev:     dev,
		spec:    spec,
		qsU:     qsU,
		n0:      n0,
		qn0Half: 0.5 * units.Q * n0,
		csigma:  dev.CSigma(),
		kT:      dev.KT(),
		i0:      2 * units.Q * units.KB * dev.T / (math.Pi * units.HBar) * dev.TransmissionOrBallistic(),
		bands:   dev.Bands(),
	}
	m.initFast()
	return m, nil
}

// Model1 fits the paper's three-piece model to the reference device.
func Model1(ref *fettoy.Model) (*Model, error) {
	return Fit(ref, Model1Spec(), FitOptions{})
}

// Model2 fits the paper's four-piece model to the reference device.
func Model2(ref *fettoy.Model) (*Model, error) {
	return Fit(ref, Model2Spec(), FitOptions{})
}

// Device returns the device parameters the model was fitted for.
func (m *Model) Device() fettoy.Device { return m.dev }

// Spec returns the region structure.
func (m *Model) Spec() Spec { return m.spec }

// BreaksU returns the fitted region boundaries in u = VSC - EF/q.
func (m *Model) BreaksU() []float64 { return append([]float64(nil), m.qsU.Breaks...) }

// PiecewiseU returns the fitted QS(u) curve (C/m against volts).
func (m *Model) PiecewiseU() poly.Piecewise { return m.qsU }

// QS evaluates the approximated source mobile charge q(NS - N0/2) in
// C/m at the given self-consistent voltage vsc in volts (V) (paper
// eq. 10). Beyond the
// last region boundary it equals exactly -q·N0/2 (the fitted filled-
// state term is identically zero there).
func (m *Model) QS(vsc float64) float64 { return m.qsFast(vsc) - m.qn0Half }

// QD evaluates the approximated drain mobile charge: the same fitted
// curve shifted by the drain bias, QD(VSC) = QS(VSC + VDS) (paper
// eq. 11 with eq. 6). vsc and vds are in volts (V).
func (m *Model) QD(vsc, vds float64) float64 { return m.qsFast(vsc+vds) - m.qn0Half }

// SolveVSC solves the self-consistent voltage equation in closed form.
// On every region of the combined source+drain charge curve the
// residual
//
//	F(V) = V + αG·VG + αD·VD + αS·VS − (QS(V) + QS(V+VDS))/CΣ
//
// is a polynomial of degree ≤ 3; the solver locates the sign-changing
// region (F is strictly increasing) and applies the closed-form root —
// no iteration, no integration. This is the paper's core speed claim.
// A bias whose bracket holds no root (a fit that breaks the
// monotonicity the solve rests on) returns an error wrapping
// rootfind.ErrBadBracket.
func (m *Model) SolveVSC(b fettoy.Bias) (float64, error) {
	v, branch, ok := m.solveVSCFast(m.ulEff(b), b.VD-b.VS)
	if telemetry.On() {
		countDispatch(branch)
	}
	if !ok {
		return 0, errNoRoot(b)
	}
	return v, nil
}

// errNoRoot reports a bias at which the closed-form solve found no
// root in its bracket.
func errNoRoot(b fettoy.Bias) error {
	return fmt.Errorf("core: closed-form VSC solve found no root at %+v: %w", b, rootfind.ErrBadBracket)
}

// ulEff folds the terminal-voltage term and the equilibrium-charge
// constant into one effective offset, so the residual reads
// F(V) = V + ulEff - (qNS(V) + qNS(V+VDS))/CΣ with qNS the fitted
// curve: the -q·N0 of the paper's eq. 7 (corrected signs) is exactly
// +q·N0/CΣ here.
func (m *Model) ulEff(b fettoy.Bias) float64 {
	alphaS := 1 - m.dev.AlphaG - m.dev.AlphaD
	ul := m.dev.AlphaG*b.VG + m.dev.AlphaD*b.VD + alphaS*b.VS
	return ul + 2*m.qn0Half/m.csigma
}

// CurrentAtVSC evaluates the drain current from a known VSC via the
// closed-form Fermi–Dirac integral of order 0 (paper eq. 14). vsc is
// in volts (V).
func (m *Model) CurrentAtVSC(vsc float64, b fettoy.Bias) float64 {
	vds := b.VD - b.VS
	usf := m.dev.EF - vsc
	udf := usf - vds
	// The paper's fast path is single-subband (eq. 14); honour the
	// device's ladder the same way the reference does so comparisons
	// are apples-to-apples.
	sum := 0.0
	for _, band := range m.bands {
		d := float64(band.Degeneracy) / 2
		sum += d * (fermi.F0((usf-band.EMin)/m.kT) - fermi.F0((udf-band.EMin)/m.kT))
	}
	return m.i0 * sum
}

// IDS computes the drain-source current in amperes at the given bias.
func (m *Model) IDS(b fettoy.Bias) (float64, error) {
	vsc, err := m.SolveVSC(b)
	if err != nil {
		return 0, err
	}
	return m.CurrentAtVSC(vsc, b), nil
}

// Solve returns the full operating point (mirrors fettoy.Solve so the
// two models are interchangeable behind the cntfet.Transistor
// interface).
func (m *Model) Solve(b fettoy.Bias) (fettoy.OperatingPoint, error) {
	vsc, err := m.SolveVSC(b)
	if err != nil {
		return fettoy.OperatingPoint{}, err
	}
	vds := b.VD - b.VS
	return fettoy.OperatingPoint{
		Bias: b,
		VSC:  vsc,
		IDS:  m.CurrentAtVSC(vsc, b),
		QS:   m.QS(vsc),
		QD:   m.QD(vsc, vds),
	}, nil
}

// CQS returns the source-side nonlinear capacitance dQS/dVSC in F/m
// at self-consistent voltage vsc in volts (V) — the element the
// paper's figure-1 equivalent circuit connects between the inner node
// Σ and the source. It is piecewise-polynomial (degree
// ≤ 2) and negative-valued in the charging region because QS decreases
// with VSC.
func (m *Model) CQS(vsc float64) float64 { return m.qsSlope(vsc) }

// CQD returns the drain-side nonlinear capacitance dQD/dVSC in F/m at
// the given drain bias; vsc and vds are in volts (V).
func (m *Model) CQD(vsc, vds float64) float64 { return m.qsSlope(vsc + vds) }

// WithEF returns a model for the same physical tube at a different
// doping level (Fermi level efNew, eV). No refit happens: the paper's
// normalised variable u = VSC - EF/q makes the fitted charge curve
// EF-invariant (the Fermi level only slides it along the VSC axis),
// and the equilibrium constant q·N0/2 is the fitted curve's own value
// at u = -EF (since NS(VSC=0) = N0/2). This is what makes large doping
// Monte Carlo sweeps cheap: one theory fit serves every sample.
func (m *Model) WithEF(efNew float64) (*Model, error) {
	dev := m.dev
	dev.EF = efNew
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	n0 := 2 * m.qsU.At(-efNew) / units.Q
	if n0 < 0 {
		n0 = 0 // tiny negative fit ripple in the zero region
	}
	return newModel(dev, m.spec, m.qsU, n0)
}
