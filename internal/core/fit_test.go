package core

import (
	"math"
	"slices"
	"sync"
	"testing"

	"cntfet/internal/fettoy"
	"cntfet/internal/poly"
	"cntfet/internal/telemetry"
	"cntfet/internal/units"
)

// fitAdaptive is Fit's single-temperature path with the training samples
// taken one adaptive integral at a time (ref.QS), as Fit sampled before
// the batch sampler.
func fitAdaptive(t *testing.T, ref *fettoy.Model, spec Spec) *Model {
	t.Helper()
	dev := ref.Device()
	var opt FitOptions
	opt.fill(dev, spec)
	us := units.Linspace(opt.URange[0], opt.URange[1], opt.Samples)
	ys := make([]float64, len(us))
	for i, u := range us {
		ys[i] = ref.QS(u+dev.EF) + 0.5*units.Q*ref.N0()
	}
	pw, err := fitU(spec, spec.Breaks, us, ys, opt.sampleWeights(nil, ys))
	if err != nil {
		t.Fatal(err)
	}
	m, err := newModel(dev, spec, pw, ref.N0())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFitSamplerMovesServedIDSLittle bounds what the batch sampler does
// to served answers: on the nine (T, EF) cells, model1/model2 IDS from
// the served fit (FitOptions{}) stays within 1e-5 relative of the same
// fit on adaptive samples over a 4×4 bias grid.
func TestFitSamplerMovesServedIDSLittle(t *testing.T) {
	worst := 0.0
	for _, temp := range []float64{150, 300, 450} {
		for _, ef := range []float64{-0.5, -0.32, 0} {
			dev := fettoy.Default()
			dev.T, dev.EF = temp, ef
			ref := refModel(t, dev)
			for _, spec := range []Spec{Model1Spec(), Model2Spec()} {
				fast, err := Fit(ref, spec, FitOptions{})
				if err != nil {
					t.Fatal(err)
				}
				slow := fitAdaptive(t, ref, spec)
				for _, vg := range []float64{0.15, 0.3, 0.45, 0.6} {
					for _, vd := range []float64{0.05, 0.2, 0.4, 0.6} {
						b := fettoy.Bias{VG: vg, VD: vd}
						got, err := fast.IDS(b)
						if err != nil {
							t.Fatal(err)
						}
						want, err := slow.IDS(b)
						if err != nil {
							t.Fatal(err)
						}
						rel := math.Abs(got-want) / math.Abs(want)
						worst = math.Max(worst, rel)
						if !(rel <= 1e-5) {
							t.Fatalf("%s T=%g EF=%g %+v: IDS %.10g, adaptive-sample fit %.10g (rel %.3g)",
								spec.Name, temp, ef, b, got, want, rel)
						}
					}
				}
			}
		}
	}
	t.Logf("worst relative IDS move %.3g", worst)
}

// fitFullGrid is Fit with the charge curve sampled on the whole
// Samples grid, zero tail included, through the same fitting kernel.
func fitFullGrid(t *testing.T, ref *fettoy.Model, spec Spec, opt FitOptions) poly.Piecewise {
	t.Helper()
	opt.fill(ref.Device(), spec)
	base := units.Linspace(opt.URange[0], opt.URange[1], opt.Samples)
	var us, ys []float64
	if len(opt.TrainTemps) == 0 {
		us, ys = base, sampleQNS(ref, base, nil)
	}
	for _, temp := range opt.TrainTemps {
		dev := ref.Device()
		dev.T = temp
		us, ys = append(us, base...), sampleQNS(refModel(t, dev), base, ys)
	}
	pw, err := fitU(spec, spec.Breaks, us, ys, opt.sampleWeights(nil, ys))
	if err != nil {
		t.Fatal(err)
	}
	return pw
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestFitSkipsZeroTailExactly: Fit samples the theory only at or below
// the last break, and the fitted curve is bit-identical to the fit of
// the whole grid, over (T, EF, family) including EF = 0 and 150 K, and
// over a stacked-temperature fit.
func TestFitSkipsZeroTailExactly(t *testing.T) {
	type key struct {
		temp, ef float64
		opt      FitOptions
	}
	var keys []key
	for _, temp := range []float64{150, 300, 450} {
		for _, ef := range []float64{-0.5, -0.32, 0} {
			keys = append(keys, key{temp, ef, FitOptions{}})
		}
	}
	keys = append(keys, key{300, -0.32, FitOptions{TrainTemps: []float64{150, 450}}})
	for _, k := range keys {
		dev := fettoy.Default()
		dev.T, dev.EF = k.temp, k.ef
		ref := refModel(t, dev)
		for _, spec := range []Spec{Model1Spec(), Model2Spec()} {
			before, _ := ref.Counters()
			m, err := Fit(ref, spec, k.opt)
			if err != nil {
				t.Fatal(err)
			}
			after, _ := ref.Counters()
			opt := k.opt
			opt.fill(dev, spec)
			grid := units.Linspace(opt.URange[0], opt.URange[1], opt.Samples)
			if len(k.opt.TrainTemps) == 0 {
				if want := freeSamples(grid, spec.Breaks[len(spec.Breaks)-1]); after-before != want || want >= len(grid) {
					t.Errorf("%s T=%g EF=%g: %d theory samples, want %d of %d", spec.Name, k.temp, k.ef, after-before, want, len(grid))
				}
			}
			want := fitFullGrid(t, ref, spec, k.opt)
			for i, p := range want.Pieces {
				if !slices.EqualFunc(m.qsU.Pieces[i].Coef, p.Coef, sameBits) {
					t.Fatalf("%s T=%g EF=%g %+v piece %d: %v, full-grid fit %v",
						spec.Name, k.temp, k.ef, k.opt, i, m.qsU.Pieces[i].Coef, p.Coef)
				}
			}
		}
	}
}

// coldKey is the i-th never-seen key of BenchmarkFitColdModel: the
// default tube at a (T, EF) from golden-ratio sequences, which keep
// every key fresh, fitted as model1 for even i and model2 for odd i.
func coldKey(i int) (fettoy.Device, Spec) {
	dev := fettoy.Default()
	dev.T = 150 + 300*math.Mod(float64(i)*0.6180339887, 1)
	dev.EF = -0.5 * math.Mod(float64(i)*0.7548776662, 1)
	if i%2 == 0 {
		return dev, Model1Spec()
	}
	return dev, Model2Spec()
}

// BenchmarkFitColdModel measures what a model-cache miss pays for a
// fitted family: a reference model for a never-seen (T, EF) plus its
// fit, alternating model1 and model2. integral_evals/op counts the
// theory samples (fettoy.integral_evals) each build pays.
func BenchmarkFitColdModel(b *testing.B) {
	evals := telemetry.Default().Counter(telemetry.KeyFettoyIntegralEvals)
	before := evals.Value()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		dev, spec := coldKey(i)
		ref, err := fettoy.New(dev)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Fit(ref, spec, FitOptions{}); err != nil {
			b.Fatal(err)
		}
		i++
	}
	b.ReportMetric(float64(evals.Value()-before)/float64(b.N), "integral_evals/op")
}

// TestFitTheorySampleBudget pins the theory samples a cold fit pays on
// BenchmarkFitColdModel's keys as an exact budget: the first 1000 keys
// took 161265 samples (ref.Counters) when the budget was set, on the
// code whose benchmark reported 161.1 integral_evals/op on a 2-core
// Xeon. Every fit samples only the grid points at or below its last
// break (TestFitSkipsZeroTailExactly), so a change here means the
// grid, the sampling window or the zero-tail cut moved.
func TestFitTheorySampleBudget(t *testing.T) {
	const keys, want = 1000, 161265
	total := 0
	for i := range keys {
		dev, spec := coldKey(i)
		ref := refModel(t, dev)
		if _, err := Fit(ref, spec, FitOptions{}); err != nil {
			t.Fatal(err)
		}
		n, _ := ref.Counters()
		total += n
	}
	if total != want {
		t.Fatalf("%d cold fits took %d theory samples, budget %d", keys, total, want)
	}
}

// TestFitScratchReuseBitIdentical fits key A, then a key that grows
// every pooled scratch slice (a longer grid, stacked training
// temperatures), then A again: the second fit of A, on scratch the
// larger fit left behind, must give its first fit's bits.
func TestFitScratchReuseBitIdentical(t *testing.T) {
	for _, spec := range []Spec{Model1Spec(), Model2Spec()} {
		ref := refModel(t, fettoy.Default())
		first, err := Fit(ref, spec, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		hot := fettoy.Default()
		hot.T, hot.EF = 450, -0.5
		if _, err := Fit(refModel(t, hot), spec, FitOptions{Samples: 700, TrainTemps: []float64{150, 300, 450}}); err != nil {
			t.Fatal(err)
		}
		again, err := Fit(ref, spec, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i, p := range first.qsU.Pieces {
			if !slices.EqualFunc(again.qsU.Pieces[i].Coef, p.Coef, sameBits) {
				t.Fatalf("%s piece %d: %v after a larger fit, %v before", spec.Name, i, again.qsU.Pieces[i].Coef, p.Coef)
			}
		}
		if !slices.EqualFunc(again.fastCoef, first.fastCoef, func(a, b cubic) bool {
			return slices.EqualFunc(a[:], b[:], sameBits)
		}) {
			t.Fatalf("%s: VSC-space coefficients %v after a larger fit, %v before", spec.Name, again.fastCoef, first.fastCoef)
		}
	}
}

// TestFitConcurrentScratch fits cold keys on four goroutines at once,
// so the pooled scratch passes between concurrent fits of both
// families and of different sizes, and checks each model's bits
// against the same key fitted alone. Under -race it is the pools'
// data-race check.
func TestFitConcurrentScratch(t *testing.T) {
	const keys = 32
	want := make([]*Model, keys)
	for i := range want {
		dev, spec := coldKey(i)
		m, err := Fit(refModel(t, dev), spec, FitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = m
	}
	got := make([]*Model, keys)
	errs := make([]error, keys)
	var wg sync.WaitGroup
	for w := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < keys; i += 4 {
				dev, spec := coldKey(i)
				ref, err := fettoy.New(dev)
				if err == nil {
					got[i], err = Fit(ref, spec, FitOptions{})
				}
				errs[i] = err
			}
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("key %d: %v", i, errs[i])
		}
		for j, p := range want[i].qsU.Pieces {
			if !slices.EqualFunc(got[i].qsU.Pieces[j].Coef, p.Coef, sameBits) {
				t.Fatalf("key %d piece %d: %v concurrently, %v alone", i, j, got[i].qsU.Pieces[j].Coef, p.Coef)
			}
		}
	}
}

// TestCubicTableIsShiftedCurve pins the one stored VSC-space form of
// the fitted curve. For the nine paper cells' fits of both families,
// their WithEF shifts and their FromData round trips, fastBreaks and
// fastCoef hold exactly the breaks and the zero-padded coefficients of
// the generic qsU.Shift(-EF), bit for bit, and QS and QD, which read
// the cubic table, equal that Piecewise's At at every break, its
// neighbours and across the whole VSC range (== lets the sign of an
// exact zero differ).
func TestCubicTableIsShiftedCurve(t *testing.T) {
	var models []*Model
	for _, spec := range []Spec{Model1Spec(), Model2Spec()} {
		for _, temp := range []float64{150, 300, 450} {
			for _, ef := range []float64{-0.5, -0.32, 0} {
				dev := fettoy.Default()
				dev.T, dev.EF = temp, ef
				m, err := Fit(refModel(t, dev), spec, FitOptions{})
				if err != nil {
					t.Fatal(err)
				}
				shifted, err := m.WithEF(-0.41 - ef/3)
				if err != nil {
					t.Fatal(err)
				}
				loaded, err := FromData(m.Export())
				if err != nil {
					t.Fatal(err)
				}
				models = append(models, m, shifted, loaded)
			}
		}
	}
	for _, m := range models {
		pw := m.vscCurve()
		name := m.spec.Name
		if !slices.EqualFunc(m.fastBreaks, pw.Breaks, sameBits) {
			t.Fatalf("%s at %+v: breaks %v, want %v", name, m.dev, m.fastBreaks, pw.Breaks)
		}
		for i, p := range pw.Pieces {
			var want cubic
			copy(want[:], p.Coef)
			if !slices.EqualFunc(m.fastCoef[i][:], want[:], sameBits) {
				t.Fatalf("%s at %+v: piece %d is %v, want %v", name, m.dev, i, m.fastCoef[i], want)
			}
		}
		vscs := units.Linspace(-1.5, 1.5, 301)
		for _, b := range pw.Breaks {
			vscs = append(vscs, math.Nextafter(b, math.Inf(-1)), b, math.Nextafter(b, math.Inf(1)))
		}
		for _, v := range vscs {
			if got, want := m.QS(v), pw.At(v)-m.qn0Half; got != want { //lint:allow floatcmp the cubic table must reproduce the generic curve exactly
				t.Fatalf("%s at %+v: QS(%.17g) = %.17g, want %.17g", name, m.dev, v, got, want)
			}
			for _, vds := range []float64{0.05, 0.3, 0.6} {
				if got, want := m.QD(v, vds), pw.At(v+vds)-m.qn0Half; got != want { //lint:allow floatcmp the cubic table must reproduce the generic curve exactly
					t.Fatalf("%s at %+v: QD(%.17g, %g) = %.17g, want %.17g", name, m.dev, v, vds, got, want)
				}
			}
		}
	}
}
