package fettoy

import (
	"math"
	"math/cmplx"

	"cntfet/internal/bandstruct"
	"cntfet/internal/units"
)

// Tuning of the batch sampler (SampleNS; DESIGN §5).
const (
	// samplePoleSteps is how many rule steps fit between the real θ axis
	// and the nearest Fermi pole: the trapezoidal error falls as
	// exp(−2π·samplePoleSteps) ≈ 2e-14 relative.
	samplePoleSteps = 5
	// sampleEdgeStep caps the step at this many widths √(kT/Ep) of the
	// band-edge Fermi tail exp(−Ep·θ²/2kT), whose Gaussian-like decay
	// bounds the rule's error by exp(−2π²/sampleEdgeStep²) ≈ 6e-16 when
	// the whole batch sits below the subband.
	sampleEdgeStep = 0.75
	// sampleCutKT truncates the θ axis where the node energy is this many
	// kT above both the batch's highest Fermi level and the subband edge:
	// the Fermi factor there is below e^-40 ≈ 4e-18.
	sampleCutKT = 40
	// sampleMaxKT bounds the batch the shared rule serves. A sample more
	// than this many kT below the batch's highest Fermi level would leave
	// the exponent range the factorised Fermi factor is exact in, and a
	// highest level this far above the first subband edge would need an
	// unbounded node count; either way the sample goes through N.
	sampleMaxKT = 600
	// sampleExpMax clamps the per-node exponent so every a_k is finite
	// and non-zero.
	sampleExpMax = 700
	// sampleChunk bounds the per-sample scratch kept on the stack.
	sampleChunk = 256
	// tableChunk is the most samples sampleN takes at once. Each batch
	// builds its rule around its own highest level, so a short batch of
	// ascending samples low on the axis gets a coarser, shorter rule.
	tableChunk = 64
)

// SampleNS writes q·NS(vsc) in C/m for every self-consistent voltage of
// vscs (in volts) into out, which must be at least as long as vscs and
// may be vscs itself. q·NS = QS + q·N0/2 is the source-filled charge of
// paper eqs. 2 and 10, the curve the piecewise models are fitted to.
//
// SampleNS is NS for a dense grid sampled once per model (core.Fit);
// N keeps serving the scattered points of a Newton solve. Instead of one
// adaptive integral per sample, all samples share one trapezoidal rule
// per subband:
//
//   - With x = ε + E1 = Ep·cosh θ the van Hove factor x/√(x²−Ep²)·dx
//     becomes Ep·cosh θ·dθ. The edge singularity is removed exactly and
//     the integrand is analytic and even in θ, so the trapezoidal rule
//     on [0, ∞) converges exponentially.
//   - The step is set by the Fermi pole nearest the real θ axis, which
//     belongs to the batch's highest Fermi level, and is capped by the
//     width of the band-edge tail. The rule stops once the node energy
//     is 40 kT above that level and the subband edge.
//   - The Fermi factor is 1/(1 + a_k·b_i) with a_k computed once per
//     node and b_i once per sample, so the inner loop runs no exp and no
//     sqrt.
//
// Against the same adaptive quadrature at a 1e-15·D0 tolerance the
// samples agree to better than 1e-12·D0 (TestSampleNSAccuracy), where
// NS itself, at its 1e-8·D0 tolerance, is off by up to ~2e-6·D0. NaN
// voltages give NaN, +Inf gives 0 and -Inf gives +Inf. Each sample
// counts one fettoy.integral_evals and, per subband, one
// fettoy.quad_points per node, as a call of N would. SampleNS allocates
// nothing (TestSampleNSZeroAlloc).
//
//perf:zeroalloc
func (m *Model) SampleNS(vscs, out []float64) {
	out = out[:len(vscs)]
	// uTop is the highest finite Fermi level in the batch; the rule and
	// the exponent shift are built around it.
	uTop := math.Inf(-1)
	for _, v := range vscs {
		if u := m.dev.EF - v; u > uTop && !math.IsInf(u, 1) {
			uTop = u
		}
	}
	var grid, points int64
	for lo := 0; lo < len(out); lo += sampleChunk {
		hi := min(lo+sampleChunk, len(out))
		var ubuf, bbuf [sampleChunk]float64
		us := ubuf[:hi-lo]
		for i := range us {
			us[i] = m.dev.EF - vscs[lo+i] // read before out, which may alias vscs
		}
		//lint:allow zeroalloc sampleRule's N fallback keeps its integrand closures on its stack (TestSampleNSZeroAlloc runs a sample through it)
		g, p := m.sampleRule(us, bbuf[:], uTop, 0.5*units.Q, out[lo:hi], nil) // q·NS = ½·q·N
		grid += g
		points = p // every chunk runs the same rule
	}
	m.countSamples(grid, points)
}

// sampleN writes N(u) into n and, when np is non-nil, N′(u) = dN/du
// into np for every Fermi level u of us (in eV, finite; at most
// tableChunk of them, ascending for the tightest rule): the charge
// table's batch form of N and NPrime, one batch of sampleRule around the
// highest level.
func (m *Model) sampleN(us, n, np []float64) {
	if len(us) == 0 {
		return
	}
	uTop := us[0]
	for _, u := range us[1:] {
		uTop = max(uTop, u)
	}
	var bbuf [tableChunk]float64
	m.countSamples(m.sampleRule(us, bbuf[:], uTop, 1, n, np))
}

// sampleRule is the batch samplers' one kernel. It writes pre·N(u) into
// n and, when np is non-nil, pre·N′(u) into np for every Fermi level u
// of us (in eV), using bs (at least as long as us) as scratch. All
// samples share one thetaRule per subband, built around uTop, the
// batch's highest finite level, so the inner loops run no exp and no
// sqrt: with b_i = exp((uTop − u_i)/kT) and a_k per node, ab = a_k·b_i =
// exp((ε_k − u_i)/kT), the Fermi factor is 1/(1 + ab) and its
// derivative in u is 1/(kT·(2 + ab + 1/ab)), finite for every ab in
// [0, +Inf]. A sample more than 600 kT below uTop, and every sample of a
// batch whose uTop is 600 kT above the first subband (or -Inf), goes
// through N and NPrime, which count themselves. NaN levels give NaN,
// -Inf gives 0 and +Inf gives +Inf. It returns the quantities the rule
// served (grid; two per sample when np is non-nil) and the nodes each
// cost (points), for countSamples.
//
//perf:zeroalloc
func (m *Model) sampleRule(us, bs []float64, uTop, pre float64, n, np []float64) (grid, points int64) {
	kT := m.kT
	shared := !math.IsInf(uTop, -1) && uTop/kT <= sampleMaxKT
	bs, n = bs[:len(us)], n[:len(us)]
	for i, u := range us {
		// b_i ∈ [1, e^600], or 0 for u = +Inf. A sample the shared rule
		// does not serve gets b_i = +Inf, so every node adds exactly 0.
		if t := (uTop - u) / kT; shared && t <= sampleMaxKT {
			bs[i] = math.Exp(t)
		} else {
			bs[i] = math.Inf(1)
		}
		n[i] = 0
	}
	if np != nil {
		np = np[:len(us)]
		clear(np)
	}
	if shared {
		// The nodes stream through with k as the outer loop, so the rule
		// needs no storage of its own.
		for _, band := range m.bands {
			r := m.thetaRule(band, uTop, pre)
			points += int64(r.nodes)
			for k := 0; k < r.nodes; k++ {
				w, a := r.node(k)
				fermiAdd(n, bs, w, a)
				if np != nil {
					fermiAddPrime(np, bs, w/kT, a)
				}
			}
		}
	}
	for i, u := range us {
		switch {
		case math.IsNaN(u):
			n[i] = math.NaN()
		case math.IsInf(u, -1):
			n[i] = 0
		case math.IsInf(u, 1):
			n[i] = math.Inf(1)
		case math.IsInf(bs[i], 1):
			//lint:allow zeroalloc N's integrand closures stay on its stack (TestSampleNSZeroAlloc runs a sample through here)
			n[i] = pre * m.N(u)
			if np != nil {
				//lint:allow zeroalloc NPrime's integrand closures stay on its stack, as N's do
				np[i] = pre * m.NPrime(u)
			}
		default:
			grid++
		}
	}
	if np != nil {
		grid *= 2
	}
	return grid, points
}

// countSamples records a batch's rule-served quantities as the calls of
// N they stand for: grid fettoy.integral_evals, each of points
// fettoy.quad_points.
func (m *Model) countSamples(grid, points int64) {
	metrics.integralEvals.Add(grid)
	m.localIntegrals.Add(grid)
	metrics.quadPoints.Add(points * grid)
}

// thetaRule is one subband's trapezoidal rule in θ after E = Ep·cosh θ,
// built around a reference Fermi level uTop: the step, the node count
// and, per node, the weight and the Fermi exponential. sampleRule, the
// kernel of SampleNS and sampleN, derives its nodes from it, so the two
// samplers share one accuracy argument (DESIGN §5).
type thetaRule struct {
	ep, e1, uTop, kT float64
	h, scale         float64 // step and the weight of cosh θ_k
	nodes            int
}

// thetaRule builds the rule for band around uTop; every node weight
// carries the factor pre (0.5·q for q·NS, 1 for N).
func (m *Model) thetaRule(band bandstruct.Subband, uTop, pre float64) thetaRule {
	kT := m.kT
	ep := band.EMin + m.e1 // minimum from mid-gap
	x0 := uTop + m.e1      // highest Fermi level on the same axis
	// The Fermi factor has poles where ε − u = ±iπkT, i.e. at
	// θ = acosh((x0 ± iπkT)/Ep); the nearest lies d off the real axis.
	d := imag(cmplx.Acosh(complex(x0, math.Pi*kT) / complex(ep, 0)))
	h := min(d/samplePoleSteps, sampleEdgeStep*math.Sqrt(kT/ep))
	thetaMax := math.Acosh((max(x0, ep) + sampleCutKT*kT) / ep)
	// deg·Ep·h·cosh θ_k is the node weight of N.
	deg := float64(band.Degeneracy) / 2 * bandstruct.D0()
	return thetaRule{
		ep: ep, e1: m.e1, uTop: uTop, kT: kT,
		h:     h,
		scale: pre * deg * ep * h,
		nodes: int(math.Ceil(thetaMax/h)) + 1,
	}
}

// node returns node k's weight w and a = exp((ε_k − uTop)/kT). A
// sample at Fermi level u with b = exp((uTop − u)/kT) has Fermi factor
// 1/(1 + a·b) at the node.
func (r *thetaRule) node(k int) (w, a float64) {
	c := math.Cosh(float64(k) * r.h)
	w = r.scale * c
	if k == 0 {
		w *= 0.5 // the even integrand's trapezoid on [0, ∞)
	}
	// The exponent is clamped to ±700, so a is finite and non-zero and
	// a·b is never 0·Inf: no NaN can arise. Overflow of the product to
	// +Inf gives F = 0, the correct limit. The clamp never changes a
	// served F: above +700 both the true and the clamped factor are
	// below e^-700, and below -700 both exponents stay under -100
	// (b ≤ e^600), where F rounds to 1.
	s := (r.ep*c - r.e1 - r.uTop) / r.kT
	return w, math.Exp(max(-sampleExpMax, min(s, sampleExpMax)))
}
