package fettoy

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"cntfet/internal/bandstruct"
	"cntfet/internal/fermi"
	"cntfet/internal/quad"
	"cntfet/internal/rootfind"
	"cntfet/internal/telemetry"
	"cntfet/internal/units"
)

// metrics holds the pre-resolved telemetry handles of the reference
// model. The instruments live in the process-wide registry (stable
// across Reset), so every Model shares them; per-model deltas come
// from construction-time baselines (see Counters). Recording is
// unconditional: one quadrature integral costs ~10 µs, so a handful of
// atomic adds are far below noise, and diagnostics stay live even with
// the telemetry gate off.
var metrics = struct {
	integralEvals   *telemetry.Counter
	quadPoints      *telemetry.Counter
	newtonIters     *telemetry.Counter
	bracketFailures *telemetry.Counter
	solves          *telemetry.Counter
	solveTime       *telemetry.Timer
	solveIters      *telemetry.Histogram
	tableBuilds     *telemetry.Counter
	tableNodes      *telemetry.Counter
	tableHits       *telemetry.Counter
	tableMisses     *telemetry.Counter
}{
	integralEvals:   telemetry.Default().Counter(telemetry.KeyFettoyIntegralEvals),
	quadPoints:      telemetry.Default().Counter(telemetry.KeyFettoyQuadPoints),
	newtonIters:     telemetry.Default().Counter(telemetry.KeyFettoyNewtonIters),
	bracketFailures: telemetry.Default().Counter(telemetry.KeyFettoyBracketFailures),
	solves:          telemetry.Default().Counter(telemetry.KeyFettoySolves),
	solveTime:       telemetry.Default().Timer(telemetry.KeyFettoySolveTime),
	solveIters:      telemetry.Default().Histogram(telemetry.KeyFettoySolveIters, []float64{2, 4, 8, 16, 32, 64}),
	tableBuilds:     telemetry.Default().Counter(telemetry.KeyFettoyTableBuilds),
	tableNodes:      telemetry.Default().Counter(telemetry.KeyFettoyTableNodes),
	tableHits:       telemetry.Default().Counter(telemetry.KeyFettoyTableHits),
	tableMisses:     telemetry.Default().Counter(telemetry.KeyFettoyTableMisses),
}

// Model is the theoretical (FETToy-equivalent) ballistic CNT transistor.
// It is safe for concurrent use after construction.
type Model struct {
	dev    Device
	bands  []bandstruct.Subband // minima relative to the first subband edge
	e1     float64              // first subband minimum from mid-gap, eV
	kT     float64              // eV
	csigma float64              // F/m
	n0     float64              // equilibrium density, states/m

	// quadTol is the absolute quadrature tolerance on the states/m
	// scale of one integral.
	quadTol float64

	// localIntegrals/localNewton are this model's own work counters,
	// kept alongside the shared registry instruments so Counters stays
	// exact when several models solve concurrently.
	localIntegrals atomic.Int64
	localNewton    atomic.Int64

	// table, when set (before any concurrent use, like trace), serves
	// SolveVSC's state-density evaluations by interpolation.
	table *ChargeTable

	// trace, when set (before any concurrent use), receives the
	// per-iteration residual trajectory of every VSC solve.
	trace *telemetry.Tracer
}

// New validates the device and precomputes the equilibrium density N0.
func New(dev Device) (*Model, error) {
	if err := dev.Validate(); err != nil {
		return nil, err
	}
	m := &Model{
		dev:     dev,
		bands:   dev.Bands(),
		e1:      dev.E1(),
		kT:      dev.KT(),
		csigma:  dev.CSigma(),
		quadTol: 1e-8 * bandstruct.D0(),
	}
	m.n0 = m.N(dev.EF)
	return m, nil
}

// SetTrace attaches a tracer: while it is enabled, every SolveVSC
// records its per-iteration residual trajectory as "fettoy.newton"
// events and a "fettoy.solve" summary event. Set it before sharing the
// model across goroutines; a nil tracer (the default) is free.
func (m *Model) SetTrace(tr *telemetry.Tracer) { m.trace = tr }

// Device returns the parameter set the model was built from.
func (m *Model) Device() Device { return m.dev }

// N0 returns the equilibrium electron density in states/m (paper
// eq. 4).
func (m *Model) N0() float64 { return m.n0 }

// Counters reports how many state-density integrals and Newton
// iterations this model has performed since construction — the cost the
// piecewise approximation removes. The counts are local atomics, so
// they stay exact when several models solve concurrently; the shared
// "fettoy.*" registry instruments accumulate the same events
// process-wide.
func (m *Model) Counters() (integrals, newtonIters int) {
	return int(m.localIntegrals.Load()), int(m.localNewton.Load())
}

// tailIntegral integrates a Fermi-weighted tail integrand over
// [start, ∞). When the Fermi level u sits above start, the integrand's
// only structure — the kT-wide Fermi window around ε = u — lies inside
// the semi-infinite panel, where adaptive sampling can step straight
// over it (the -∂f/∂ε integrand of NPrime is a near-δ spike there).
// Splitting at the window and integrating the finite part with adaptive
// Simpson pins the peak; beyond u + 25kT the Fermi factors are < 2e-11
// and the transform handles the remainder.
func (m *Model) tailIntegral(g func(float64) float64, start, u float64) float64 {
	from := start
	total := 0.0
	if u > start {
		hi := u + 25*m.kT
		window, _ := quad.Simpson(g, start, hi, m.quadTol, 30)
		total += window
		from = hi
	}
	tail, _ := quad.SemiInfinite(g, from, m.quadTol)
	return total + tail
}

// N evaluates the full state-density integral
//
//	N(U) = Σ_p ∫ D_p(ε) f(ε-U) dε   [states/m]
//
// with ε measured from the first subband edge and U the effective Fermi
// level on the same axis (paper eqs. 2-4 evaluate this at USF, UDF and
// EF). The van Hove edge of each subband is integrated with the exact
// sqrt substitution; the Fermi tail with a semi-infinite transform.
// u is in electronvolts (eV).
func (m *Model) N(u float64) float64 {
	metrics.integralEvals.Inc()
	m.localIntegrals.Add(1)
	total := 0.0
	points := 0
	for _, b := range m.bands {
		ep := b.EMin + m.e1         // minimum from mid-gap
		eps0 := b.EMin              // minimum on the ε axis
		w := math.Max(10*m.kT, 0.1) // singular-panel width, eV
		deg := float64(b.Degeneracy) / 2 * bandstruct.D0()

		// Edge panel: D_p(ε)f = [deg·(ε+E1)·f/(sqrt(ε+E1+Ep))] / sqrt(ε-εp).
		g := func(eps float64) float64 {
			points++
			x := eps + m.e1
			return deg * x * fermi.F(eps-u, m.kT) / math.Sqrt(x+ep)
		}
		edge, err := quad.SqrtSingularUpper(g, eps0, eps0+w, m.quadTol)
		if err != nil {
			// Depth exhaustion leaves the best estimate; the tail
			// below still completes the integral.
			_ = err
		}
		// Smooth tail, split at the Fermi window when it lies inside.
		tail := m.tailIntegral(func(eps float64) float64 {
			points++
			x := eps + m.e1
			return deg * x / math.Sqrt(x*x-ep*ep) * fermi.F(eps-u, m.kT)
		}, eps0+w, u)
		total += edge + tail
	}
	metrics.quadPoints.Add(int64(points))
	return total
}

// NPrime evaluates dN/dU >= 0 (states/m per eV), the quantum
// capacitance integrand, with the same singular/tail splitting as N.
func (m *Model) NPrime(u float64) float64 {
	metrics.integralEvals.Inc()
	m.localIntegrals.Add(1)
	total := 0.0
	points := 0
	for _, b := range m.bands {
		ep := b.EMin + m.e1
		eps0 := b.EMin
		w := math.Max(10*m.kT, 0.1)
		deg := float64(b.Degeneracy) / 2 * bandstruct.D0()

		g := func(eps float64) float64 {
			points++
			x := eps + m.e1
			return deg * x * -fermi.DF(eps-u, m.kT) / math.Sqrt(x+ep)
		}
		edge, _ := quad.SqrtSingularUpper(g, eps0, eps0+w, m.quadTol)
		tail := m.tailIntegral(func(eps float64) float64 {
			points++
			x := eps + m.e1
			return deg * x / math.Sqrt(x*x-ep*ep) * -fermi.DF(eps-u, m.kT)
		}, eps0+w, u)
		total += edge + tail
	}
	metrics.quadPoints.Add(int64(points))
	return total
}

// NS returns the density of positive-velocity states filled by the
// source at self-consistent voltage vsc in volts (V) (paper eq. 2):
// ½·N(EF - vsc).
func (m *Model) NS(vsc float64) float64 { return 0.5 * m.N(m.dev.EF-vsc) }

// ND returns the density of negative-velocity states filled by the
// drain (paper eq. 3): ½·N(EF - vsc - vds). vsc and vds are in
// volts (V).
func (m *Model) ND(vsc, vds float64) float64 { return 0.5 * m.N(m.dev.EF-vsc-vds) }

// QS returns the source-side mobile charge q(NS - N0/2) in C/m at
// self-consistent voltage vsc in volts (V) (paper eq. 10) — the
// quantity the piecewise models approximate.
func (m *Model) QS(vsc float64) float64 {
	return units.Q * (m.NS(vsc) - 0.5*m.n0)
}

// QD returns the drain-side mobile charge q(ND - N0/2) in C/m (paper
// eq. 11); vsc and vds are in volts (V).
func (m *Model) QD(vsc, vds float64) float64 {
	return units.Q * (m.ND(vsc, vds) - 0.5*m.n0)
}

// Bias is one operating point; source is the reference terminal.
type Bias struct {
	VG, VD, VS float64
}

// SolveStats reports the work one SolveVSC call performed.
type SolveStats struct {
	Iterations int
	// FuncEvals counts residual evaluations: the bracket ends, every
	// bracket growth, and one per Newton iteration.
	FuncEvals int
}

// SolveVSC solves the self-consistent voltage equation (paper eq. 7,
// with the corrected charge sign — see DESIGN.md):
//
//	VSC + (αG·VG + αD·VD + αS·VS) − q·(NS + ND − N0)/CΣ = 0
//
// by safeguarded Newton–Raphson with the analytic quantum-capacitance
// derivative. This is the expensive step the paper's closed-form
// technique eliminates. With an attached ChargeTable (EnableTable) the
// Newton iterations interpolate the tabulated state density instead of
// re-integrating it.
func (m *Model) SolveVSC(b Bias) (float64, SolveStats, error) {
	return m.SolveVSCFrom(b, math.NaN())
}

// SolveVSCFrom is SolveVSC warm-started from a neighbouring solution —
// the continuation a bias sweep exploits: consecutive points along a
// VDS row start from the previous root instead of re-bracketing around
// the zero-charge estimate. A NaN guess degrades to the cold start.
func (m *Model) SolveVSCFrom(b Bias, guess float64) (float64, SolveStats, error) {
	var c tally
	vsc, st, err := m.solvePoint(b, guess, &c)
	m.flush(&c)
	return vsc, st, err
}

// tally accumulates the shared work counters of one call or one
// IDSBatch row, so they reach the registry in one flush.
type tally struct {
	solves, iters, hits, misses int64
}

// flush adds the tallied work to the registry and the model's own
// Newton count.
func (m *Model) flush(c *tally) {
	metrics.solves.Add(c.solves)
	if c.hits != 0 {
		metrics.tableHits.Add(c.hits)
	}
	if c.misses != 0 {
		metrics.tableMisses.Add(c.misses)
	}
	if c.iters != 0 {
		metrics.newtonIters.Add(c.iters)
		m.localNewton.Add(c.iters)
	}
}

// solvePoint is the one eq.-7 solve behind every entry point: Newton
// from the guess (NaN = cold start from the zero-charge solution -UL)
// on the attached table's interpolated density, redone on exact
// quadrature when a lookup leaves the grid or the tabulated solve
// fails. It tallies counters into c, records the solve time and
// iteration histogram, and emits the trace events. With a table and
// no trace it does not allocate: its closures never escape.
func (m *Model) solvePoint(b Bias, guess float64, c *tally) (float64, SolveStats, error) {
	alphaS := 1 - m.dev.AlphaG - m.dev.AlphaD
	ul := m.dev.AlphaG*b.VG + m.dev.AlphaD*b.VD + alphaS*b.VS
	vds := b.VD - b.VS
	qcs := units.Q / m.csigma
	on := telemetry.On()
	var t0 time.Time
	if on {
		t0 = time.Now()
	}
	c.solves++

	tab := m.table
	// g is eq. 7's residual at v and, when deriv is set, its derivative:
	// N and N' by one Hermite lookup per terminal while tab is set, by
	// the quadrature integrals otherwise.
	g := func(v float64, deriv bool) (gv, dgv float64, ok bool) {
		us, ud := m.dev.EF-v, m.dev.EF-v-vds
		var ns, nd, nps, npd float64
		if tab != nil {
			if ns, nps, ok = tab.eval(us); !ok {
				return 0, 0, false
			}
			if nd, npd, ok = tab.eval(ud); !ok {
				return 0, 0, false
			}
			c.hits += 2
		} else {
			ns, nd = m.N(us), m.N(ud)
			if deriv {
				nps, npd = m.NPrime(us), m.NPrime(ud)
			}
		}
		return v + ul - qcs*(0.5*(ns+nd)-m.n0), 1 + 0.5*qcs*(nps+npd), true
	}
	// A warm start brackets tightly around the neighbouring root; g is
	// strictly increasing, so the bracket growth recovers from a bad
	// guess.
	x0, half := -ul, 0.5
	if !math.IsNaN(guess) {
		x0, half = guess, 0.05
	}
	opt := rootfind.Options{XTol: 1e-12, MaxIter: 100, MaxGrow: 40}
	if m.trace.Enabled() {
		opt.OnIter = func(iter int, v, gv float64) {
			m.trace.Emit(telemetry.KindFettoyNewton, telemetry.Int(telemetry.AttrIter, int64(iter)),
				telemetry.Float(telemetry.AttrV, v), telemetry.Float(telemetry.AttrResidual, gv),
				telemetry.Float(telemetry.AttrVG, b.VG), telemetry.Float(telemetry.AttrVD, b.VD))
		}
	}
	res, err := rootfind.Newton(g, x0, half, opt)
	if err != nil && tab != nil {
		// A lookup left the tabulated range (or the tabulated solve
		// failed inside it): redo the point on exact quadrature.
		c.misses++
		tab = nil
		res, err = rootfind.Newton(g, x0, half, opt)
	}
	if on {
		metrics.solveTime.Observe(time.Since(t0))
	}
	if err != nil {
		if errors.Is(err, rootfind.ErrBadBracket) {
			metrics.bracketFailures.Inc()
			return 0, SolveStats{}, fmt.Errorf("fettoy: no bracket for VSC at %+v: %w", b, err)
		}
		return 0, SolveStats{}, fmt.Errorf("fettoy: VSC solve failed at %+v: %w", b, err)
	}
	c.iters += int64(res.Iterations)
	metrics.solveIters.Observe(float64(res.Iterations))
	if m.trace.Enabled() {
		m.trace.Emit(telemetry.KindFettoySolve,
			telemetry.Float(telemetry.AttrVG, b.VG), telemetry.Float(telemetry.AttrVD, b.VD),
			telemetry.Float(telemetry.AttrVS, b.VS), telemetry.Float(telemetry.AttrVSC, res.Root),
			telemetry.Int(telemetry.AttrIters, int64(res.Iterations)),
			telemetry.Int(telemetry.AttrFuncEvals, int64(res.FuncEvals)))
	}
	return res.Root, SolveStats{Iterations: res.Iterations, FuncEvals: res.FuncEvals}, nil
}

// CurrentAtVSC evaluates the ballistic drain current (paper eqs. 12-14)
// given an already-solved self-consistent voltage vsc in volts (V).
func (m *Model) CurrentAtVSC(vsc float64, b Bias) float64 {
	vds := b.VD - b.VS
	usf := m.dev.EF - vsc
	udf := usf - vds
	i0 := 2 * units.Q * units.KB * m.dev.T / (math.Pi * units.HBar) * m.dev.TransmissionOrBallistic()
	sum := 0.0
	for _, band := range m.bands {
		d := float64(band.Degeneracy) / 2
		sum += d * (fermi.F0((usf-band.EMin)/m.kT) - fermi.F0((udf-band.EMin)/m.kT))
	}
	return i0 * sum
}

// IDS solves the operating point and returns the drain-source current
// in amperes.
func (m *Model) IDS(b Bias) (float64, error) {
	ids, _, err := m.IDSFrom(b, math.NaN())
	return ids, err
}

// IDSFrom solves with a warm-start guess (NaN = cold start) and returns
// both the current and the solved VSC, so a sweep can thread each
// solution into the next point of its row. It implements the sweep
// package's warm-start interface.
func (m *Model) IDSFrom(b Bias, guess float64) (ids, vsc float64, err error) {
	vsc, _, err = m.SolveVSCFrom(b, guess)
	if err != nil {
		return 0, 0, err
	}
	return m.CurrentAtVSC(vsc, b), vsc, nil
}

// IDSBatch evaluates one current per bias into out (which must be at
// least as long as bias), threading warm-start continuation through the
// batch: each solve starts from its predecessor's root, so a VDS row
// costs a fraction of len(bias) independent cold solves. It implements
// the sweep package's batch interface.
//
// Every point runs the per-point solve; the work counters accumulate
// locally with one flush after the row, so the totals match a chain of
// IDSFrom calls. With a charge table attached and no trace the row
// allocates nothing (testing.AllocsPerRun == 0, telemetry on or off):
// the one-time tabulation is hoisted ahead of the row.
//
//perf:zeroalloc
func (m *Model) IDSBatch(bias []Bias, out []float64) error {
	if t := m.table; t != nil {
		//lint:allow zeroalloc one-time table build, amortised over every subsequent row
		t.tab() // pay the one-time build before the row, not inside point 0
	}
	var c tally
	guess := math.NaN()
	for i, b := range bias {
		//lint:allow zeroalloc solvePoint's closures never escape; the alloc test covers the table path, telemetry on and off
		vsc, _, err := m.solvePoint(b, guess, &c)
		if err != nil {
			m.flush(&c)
			return err
		}
		out[i] = m.CurrentAtVSC(vsc, b)
		guess = vsc
	}
	m.flush(&c)
	return nil
}

// OperatingPoint bundles the solved internal state for one bias.
type OperatingPoint struct {
	Bias Bias
	// VSC is the self-consistent voltage in volts.
	VSC float64
	// IDS is the drain-source current in amperes.
	IDS float64
	// QS, QD are the terminal mobile charges in C/m.
	QS, QD float64
	// Stats reports the solver work.
	Stats SolveStats
}

// Solve computes the full operating point at bias b.
func (m *Model) Solve(b Bias) (OperatingPoint, error) {
	vsc, st, err := m.SolveVSC(b)
	if err != nil {
		return OperatingPoint{}, err
	}
	vds := b.VD - b.VS
	return OperatingPoint{
		Bias:  b,
		VSC:   vsc,
		IDS:   m.CurrentAtVSC(vsc, b),
		QS:    m.QS(vsc),
		QD:    m.QD(vsc, vds),
		Stats: st,
	}, nil
}

// CQS returns the theoretical source-side nonlinear capacitance
// dQS/dVSC in F/m at self-consistent voltage vsc in volts (V) (the
// figure-1 equivalent-circuit element): from QS = q(N(EF-VSC)/2 -
// N0/2), dQS/dVSC = -q·N'(USF)/2.
func (m *Model) CQS(vsc float64) float64 {
	return -0.5 * units.Q * m.NPrime(m.dev.EF-vsc)
}

// CQD returns the theoretical drain-side nonlinear capacitance
// dQD/dVSC in F/m; vsc and vds are in volts (V).
func (m *Model) CQD(vsc, vds float64) float64 {
	return -0.5 * units.Q * m.NPrime(m.dev.EF-vsc-vds)
}
