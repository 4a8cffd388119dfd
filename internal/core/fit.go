package core

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"cntfet/internal/fettoy"
	"cntfet/internal/optimize"
	"cntfet/internal/poly"
	"cntfet/internal/units"
)

// FitOptions tunes the charge-curve fitting.
type FitOptions struct {
	// URange is the sampling window in u = VSC − EF/q (volts). The
	// zero value derives a window from the device and spec (see
	// OperationalURange): it must cover the u values the bias sweeps
	// actually reach — since IDS error scales with the *absolute*
	// charge error, fitting far outside the reachable window wastes
	// the few degrees of freedom the C¹-constrained models have on
	// curve regions no bias visits.
	URange [2]float64
	// Samples is the number of grid points across URange (default
	// 240). The theory curve is sampled once per fit, and this is the
	// only place the slow reference model is consulted. Only the points
	// a free piece covers are evaluated: with a zero tail and fixed
	// breaks, the points above the last break fall in the fixed zero
	// piece, so the fit never samples them (OptimizeBreaks samples the
	// whole grid, because its last break can move).
	Samples int
	// OptimizeBreaks re-derives the region boundaries numerically by
	// Nelder–Mead RMS minimisation (the paper's "purely numerical"
	// boundary choice) instead of trusting Spec.Breaks.
	OptimizeBreaks bool
	// VGMax is the largest gate bias the fit should stay accurate for
	// when deriving the default window (default 0.6 V, the paper's
	// sweep limit).
	VGMax float64
	// WeightFloor controls relative-error weighting: each sample gets
	// weight 1/(|Q| + WeightFloor·max|Q|)², so the knee region (small
	// charge, exponentially sensitive subthreshold current) is fitted
	// to relative rather than absolute accuracy. The zero value means
	// 0.05; a negative value selects uniform (absolute) weighting.
	WeightFloor float64
	// TrainTemps, when non-empty, stacks theory samples from the same
	// device at each listed temperature into one fit — the paper's
	// "over the temperature range 150K ≤ T ≤ 450K" training. The
	// resulting charge curve is a compromise across the range; leaving
	// this empty fits at the device's own temperature (tighter at that
	// temperature, the library default). The ablation benchmark
	// quantifies the difference.
	TrainTemps []float64
}

func (o *FitOptions) fill(dev fettoy.Device, spec Spec) {
	if o.VGMax == 0 { //lint:allow floatcmp zero VGMax selects the default
		o.VGMax = 0.6
	}
	if o.URange == [2]float64{} {
		o.URange = OperationalURange(dev, spec, o.VGMax)
	}
	if o.Samples == 0 {
		o.Samples = 240
	}
	if o.WeightFloor == 0 { //lint:allow floatcmp zero WeightFloor selects the default
		o.WeightFloor = 0.05
	}
}

// sampleWeights writes the relative-error weights for the charge
// samples into dst, grown as needed, and returns them; nil means
// uniform.
func (o FitOptions) sampleWeights(dst, ys []float64) []float64 {
	if o.WeightFloor < 0 {
		return nil
	}
	ymax := 0.0
	for _, y := range ys {
		if a := math.Abs(y); a > ymax {
			ymax = a
		}
	}
	if ymax == 0 { //lint:allow floatcmp exact-zero normalisation guard
		return nil
	}
	w := resize(dst, len(ys))
	for i, y := range ys {
		d := math.Abs(y) + o.WeightFloor*ymax
		w[i] = 1 / (d * d)
	}
	return w
}

// OperationalURange returns the window of u = VSC − EF/q a device
// actually visits for gate biases up to vgMax, padded so every region
// of the spec (including the deep linear region) receives samples. The
// most negative reachable VSC is about −(αG+αD)·vgMax (the zero-charge
// limit; charge feedback only pulls VSC upward), so
// u_min ≈ −(αG+αD)·vgMax − EF; the high side only needs to reach past
// the zero-region boundary.
func OperationalURange(dev fettoy.Device, spec Spec, vgMax float64) [2]float64 {
	uMin := -(dev.AlphaG+dev.AlphaD)*vgMax - dev.EF
	if len(spec.Breaks) > 0 && spec.Breaks[0] < uMin {
		uMin = spec.Breaks[0] // keep the first region non-degenerate
	}
	uMin -= 0.1
	uMax := 0.35
	if last := spec.Breaks[len(spec.Breaks)-1]; last+0.1 > uMax {
		uMax = last + 0.1
	}
	return [2]float64{uMin, uMax}
}

// fitScratch holds the slices one Fit needs only while it runs: the
// sample grid, the stacked grids and theory samples of a multi-
// temperature fit, and the sample weights. The fitted Model keeps none
// of them.
type fitScratch struct {
	grid, us, ys, weights []float64
}

// fitScratchPool lends each Fit its scratch. A pool, not one retained
// buffer: a garbage collection empties it, so an idle process holds no
// fit scratch, while back-to-back fits (a burst of model-cache misses)
// reuse it.
var fitScratchPool = sync.Pool{New: func() any { return new(fitScratch) }}

// resize returns s with length n, reusing its backing array when it is
// large enough. The contents are unspecified: callers overwrite them.
func resize(s []float64, n int) []float64 {
	return slices.Grow(s[:0], n)[:n]
}

// Fit samples the theoretical mobile charge QS(VSC) from the reference
// model and fits the spec's piecewise polynomial with C¹ continuity,
// returning a fast Model. The fit lives in u-space so the breakpoints
// are the paper's EF-relative values; the returned model stores the
// curve shifted back to absolute VSC.
func Fit(ref *fettoy.Model, spec Spec, opt FitOptions) (*Model, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	dev := ref.Device()
	opt.fill(dev, spec)
	if opt.URange[1] <= opt.URange[0] {
		return nil, fmt.Errorf("core: bad URange %v", opt.URange)
	}

	// Sample the theory once, with the reference model's batch sampler.
	// The fitted quantity is q·NS(VSC) = QS + q·N0/2 rather than QS
	// itself: q·NS is positive and truly tends to zero above EF/q, so the
	// models' fixed zero tail is exact in the limit, while the
	// equilibrium constant -q·N0/2 is carried analytically. For the
	// paper's EF = -0.32 eV the two are indistinguishable (N0 ~ 1e-6 of
	// the curve scale), but at EF = 0 the constant is what keeps the
	// closed-form solve accurate in the zero region.
	sc := fitScratchPool.Get().(*fitScratch)
	defer fitScratchPool.Put(sc)
	sc.grid = units.LinspaceInto(resize(sc.grid, opt.Samples), opt.URange[0], opt.URange[1])
	base := sc.grid
	if spec.ZeroTail && !opt.OptimizeBreaks {
		base = base[:freeSamples(base, spec.Breaks[len(spec.Breaks)-1])]
	}
	us, ys := base, sc.ys[:0]
	if len(opt.TrainTemps) == 0 {
		ys = sampleQNS(ref, base, ys)
	} else {
		// Stack samples from every training temperature (paper: one
		// model trained over 150-450 K). Each temperature contributes
		// its own q·NS curve; the device's own equilibrium constant is
		// still what the solver uses.
		us = sc.us[:0]
		for _, temp := range opt.TrainTemps {
			devT := dev
			devT.T = temp
			refT, err := fettoy.New(devT)
			if err != nil {
				return nil, fmt.Errorf("core: training temperature %g K: %w", temp, err)
			}
			us = append(us, base...)
			ys = sampleQNS(refT, base, ys)
		}
		sc.us = us
	}
	sc.ys = ys
	weights := opt.sampleWeights(sc.weights, ys)
	if weights != nil {
		sc.weights = weights
	}

	breaks := spec.Breaks
	if opt.OptimizeBreaks {
		// Multi-start: the paper's boundaries were derived for 300 K;
		// the knee width scales with kT, so a temperature-scaled
		// variant of the starting point lets the optimiser find the
		// sharper knee at low T instead of a nearby local minimum.
		starts := [][]float64{breaks}
		if scale := units.KT(dev.T) / units.KT(units.Room); scale != 1 { //lint:allow floatcmp scale exactly 1 means T == Room, no extra start
			scaled := make([]float64, len(breaks))
			for i, b := range breaks {
				scaled[i] = b * scale
			}
			starts = append(starts, scaled)
		}
		breaks = optimizeBreaksMulti(spec, us, ys, weights, starts)
	}

	pw, err := fitU(spec, breaks, us, ys, weights)
	if err != nil {
		return nil, err
	}
	return newModel(dev, spec, pw, ref.N0())
}

// freeSamples returns how many leading points of the ascending grid us
// lie at or below last, the zero tail's break: the points a free piece
// covers. Cutting the grid there changes no fitted bit, for three
// reasons. The cut points are no design rows. A sample's q·NS depends
// only on itself and the batch's highest Fermi level, which the lowest
// u sets and the cut keeps. And q·NS falls as u rises, so the weights'
// normalising maximum stays too.
func freeSamples(us []float64, last float64) int {
	n := len(us)
	for n > 0 && us[n-1] > last {
		n--
	}
	return n
}

// sampleQNS appends q·NS(u + EF) in C/m for every u of us to dst and
// returns the extended slice: one batch of the reference model's sampler.
func sampleQNS(ref *fettoy.Model, us, dst []float64) []float64 {
	n := len(dst)
	dst = slices.Grow(dst, len(us))[:n+len(us)]
	seg := dst[n:]
	ef := ref.Device().EF
	for i, u := range us {
		seg[i] = u + ef
	}
	ref.SampleNS(seg, seg)
	return dst
}

// fitU runs the constrained least squares in u-space.
func fitU(spec Spec, breaks, us, ys, weights []float64) (poly.Piecewise, error) {
	var specs [maxBreaks + 1]poly.PieceSpec
	var orders [maxBreaks]int
	return poly.FitPiecewiseWeighted(breaks, spec.pieceSpecs(specs[:0]), us, ys, weights, spec.continuityOrders(orders[:0]))
}

// optimizeBreaksMulti runs the breakpoint optimisation from several
// starting points and keeps the best result.
func optimizeBreaksMulti(spec Spec, us, ys, weights []float64, starts [][]float64) []float64 {
	best := starts[0]
	bestScore := math.Inf(1)
	for _, start := range starts {
		b := optimizeBreaks(spec, us, ys, weights, start)
		if s := breakObjective(spec, us, ys, weights, b); s < bestScore {
			best, bestScore = b, s
		}
	}
	return best
}

// breakObjective scores one breakpoint candidate (weighted fit RMS;
// +Inf for infeasible candidates).
func breakObjective(spec Spec, us, ys, weights, b []float64) float64 {
	for i, v := range b {
		if v <= us[0] || v >= us[len(us)-1] {
			return math.Inf(1)
		}
		if i > 0 && v <= b[i-1]+0.01 {
			return math.Inf(1)
		}
	}
	pw, err := fitU(spec, b, us, ys, weights)
	if err != nil {
		return math.Inf(1)
	}
	if weights == nil {
		return poly.RMS(pw.At, us, ys)
	}
	s := 0.0
	for i, u := range us {
		d := pw.At(u) - ys[i]
		s += weights[i] * d * d
	}
	return math.Sqrt(s / float64(len(us)))
}

// optimizeBreaks minimises the weighted fit RMS over the interior
// breakpoints with Nelder–Mead, keeping them ordered and inside the
// sample window.
func optimizeBreaks(spec Spec, us, ys, weights, start []float64) []float64 {
	objective := func(b []float64) float64 {
		return breakObjective(spec, us, ys, weights, b)
	}
	best, _, err := optimize.NelderMead(objective, start, optimize.NelderMeadOptions{
		InitialStep: uniformSteps(len(start), 0.02),
		MaxIter:     800,
	})
	if err != nil && err != optimize.ErrMaxIter {
		return start
	}
	if objective(best) <= objective(start) {
		return best
	}
	return start
}

func uniformSteps(n int, v float64) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// FitQuality reports how well a fitted model tracks the theory curve it
// was trained on.
type FitQuality struct {
	// RMS is the absolute charge RMS deviation in C/m.
	RMS float64
	// RMSRel is RMS normalised by the mean absolute theory charge.
	RMSRel float64
	// C0, C1 are the worst value/slope jumps across breakpoints.
	C0, C1 float64
}

// Quality re-samples the reference model and scores the fit.
func Quality(ref *fettoy.Model, m *Model, opt FitOptions) FitQuality {
	dev := ref.Device()
	opt.fill(dev, m.Spec())
	us := units.Linspace(opt.URange[0], opt.URange[1], opt.Samples)
	qns := sampleQNS(ref, us, nil)
	qn0Half := 0.5 * units.Q * ref.N0()
	var q FitQuality
	sum, mean := 0.0, 0.0
	for i, u := range us {
		theory := qns[i] - qn0Half // QS = q·NS − q·N0/2
		d := m.QS(u+dev.EF) - theory
		sum += d * d
		mean += math.Abs(theory)
	}
	n := float64(len(us))
	q.RMS = math.Sqrt(sum / n)
	mean /= n
	if mean > 0 {
		q.RMSRel = q.RMS / mean
	}
	q.C0, q.C1 = m.qsU.ContinuityError()
	return q
}
