package core

import (
	"math"
	"testing"

	"cntfet/internal/fettoy"
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

// BenchmarkFitColdModel measures what a model-cache miss pays for a
// fitted family: a reference model for a never-seen (T, EF) plus its
// fit, alternating model1 and model2.
func BenchmarkFitColdModel(b *testing.B) {
	specs := []Spec{Model1Spec(), Model2Spec()}
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
}
