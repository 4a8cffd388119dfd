package core

import (
	"math"
	"slices"
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
	pw, err := fitU(spec, spec.Breaks, us, ys, opt.sampleWeights(ys))
	if err != nil {
		t.Fatal(err)
	}
	m, err := newModel(dev, spec, spec.Breaks, pw, ref.N0())
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
	pw, err := fitU(spec, spec.Breaks, us, ys, opt.sampleWeights(ys))
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

// BenchmarkFitColdModel measures what a model-cache miss pays for a
// fitted family: a reference model for a never-seen (T, EF) plus its
// fit, alternating model1 and model2. integral_evals/op counts the
// theory samples (fettoy.integral_evals) each build pays.
func BenchmarkFitColdModel(b *testing.B) {
	specs := []Spec{Model1Spec(), Model2Spec()}
	evals := telemetry.Default().Counter(telemetry.KeyFettoyIntegralEvals)
	before := evals.Value()
	b.ReportAllocs()
	i := 0
	for b.Loop() {
		// Golden-ratio sequences keep every key fresh.
		dev := fettoy.Default()
		dev.T = 150 + 300*math.Mod(float64(i)*0.6180339887, 1)
		dev.EF = -0.5 * math.Mod(float64(i)*0.7548776662, 1)
		ref, err := fettoy.New(dev)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Fit(ref, specs[i%2], FitOptions{}); err != nil {
			b.Fatal(err)
		}
		i++
	}
	b.ReportMetric(float64(evals.Value()-before)/float64(b.N), "integral_evals/op")
}
