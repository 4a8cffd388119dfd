package fettoy

import (
	"math"
	"testing"

	"cntfet/internal/bandstruct"
	"cntfet/internal/units"
)

// sampleDevices are the devices the sampler is checked on: the paper's
// nominal tube, the Javey back-gated tube, and a three-subband tube.
func sampleDevices() map[string]Device {
	three := Default()
	three.Subbands = 3
	return map[string]Device{"default": Default(), "javey": Javey(), "3-subband": three}
}

// sampleWindows returns the VSC windows the sampler serves: the fit's
// operational window (core.OperationalURange for the paper's Model 2
// breaks, reproduced here because fettoy cannot import core), shifted
// to VSC, and the charge table's default window U ∈ [EF−1.3, EF+1.4].
func sampleWindows(dev Device) map[string][2]float64 {
	uMin := math.Min(-(dev.AlphaG+dev.AlphaD)*0.6-dev.EF, -0.28) - 0.1
	return map[string][2]float64{
		"operational": {uMin + dev.EF, 0.35 + dev.EF},
		"table":       {-1.4, 1.3},
	}
}

// preciseModel is the sampler's accuracy reference: the same model with
// its adaptive quadrature tightened from 1e-8·D0 to 1e-15·D0.
func preciseModel(t testing.TB, dev Device) *Model {
	t.Helper()
	m, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	m.quadTol = 1e-15 * bandstruct.D0()
	return m
}

func TestSampleNSAccuracy(t *testing.T) {
	const n = 33
	temps := []float64{150, 225, 300, 375, 450}
	efs := []float64{-0.5, -0.32, 0}
	if testing.Short() {
		temps, efs = []float64{150, 450}, []float64{-0.32}
	}
	bound := 1e-12 * bandstruct.D0()                             // states/m
	worst, worstNS := map[string]float64{}, map[string]float64{} // per window, states/m
	for name, base := range sampleDevices() {
		for _, temp := range temps {
			for _, ef := range efs {
				dev := base
				dev.T, dev.EF = temp, ef
				m, err := New(dev)
				if err != nil {
					t.Fatal(err)
				}
				ref := preciseModel(t, dev)
				for wname, w := range sampleWindows(dev) {
					vscs := units.Linspace(w[0], w[1], n)
					got := make([]float64, n)
					m.SampleNS(vscs, got)
					for i, v := range vscs {
						want := ref.NS(v)
						d := math.Abs(got[i]/units.Q - want)
						worst[wname] = math.Max(worst[wname], d)
						worstNS[wname] = math.Max(worstNS[wname], math.Abs(m.NS(v)-want))
						if !(d <= bound) {
							t.Fatalf("%s T=%g EF=%g %s: NS(%g) = %.17g, reference %.17g (|Δ| = %.3g·D0)",
								name, temp, ef, wname, v, got[i]/units.Q, want, d/bandstruct.D0())
						}
					}
				}
			}
		}
	}
	for w := range worst {
		t.Logf("%s window: worst |Δ| sampler %.3g·D0, adaptive NS %.3g·D0", w, worst[w]/bandstruct.D0(), worstNS[w]/bandstruct.D0())
	}
}

func TestSampleNSEdgeCases(t *testing.T) {
	m := newDefault(t)
	ref := preciseModel(t, Default())
	// near reports whether a sample matches the reference; samples far
	// outside the shared rule's span come from N, whose own 1e-8·D0
	// tolerance the relative slack absorbs.
	near := func(got, vsc float64) bool {
		want := units.Q * ref.NS(vsc)
		return math.Abs(got-want) <= units.Q*1e-12*bandstruct.D0()+1e-7*want
	}
	// Empty and single-point batches.
	m.SampleNS(nil, nil)
	one := []float64{-0.2}
	m.SampleNS(one, one)
	if !near(one[0], -0.2) {
		t.Fatalf("single sample %g, reference %g", one[0], units.Q*ref.NS(-0.2))
	}
	// Far below and far above the band, alone and together.
	for _, vscs := range [][]float64{{60}, {-6}, {-60}, {60, -6}, {60, -60}, {-0.3, 1e6}} {
		out := make([]float64, len(vscs))
		m.SampleNS(vscs, out)
		for i, v := range vscs {
			if math.IsNaN(out[i]) || math.IsInf(out[i], 0) || out[i] < 0 || !near(out[i], v) {
				t.Fatalf("batch %v: sample %g gave %g, reference %g", vscs, v, out[i], units.Q*ref.NS(v))
			}
		}
	}
	// Non-finite voltages take their limits and leave the rest alone.
	vscs := []float64{-0.4, math.NaN(), 0.1, math.Inf(1), math.Inf(-1), -0.2}
	out := make([]float64, len(vscs))
	m.SampleNS(vscs, out)
	if !math.IsNaN(out[1]) || out[3] != 0 || !math.IsInf(out[4], 1) {
		t.Fatalf("non-finite limits: %v", out)
	}
	finite := []float64{-0.4, 0.1, -0.2}
	clean := make([]float64, len(finite))
	m.SampleNS(finite, clean)
	if out[0] != clean[0] || out[2] != clean[1] || out[5] != clean[2] {
		t.Fatalf("non-finite samples moved the rest: %v vs %v", out, clean)
	}
}

// TestSampleNSSharedRule pins the batch semantics: a sample's value
// depends only on itself and the batch's highest Fermi level, so chunking
// and aliasing change no bits, and samples the shared rule cannot serve
// come from N.
func TestSampleNSSharedRule(t *testing.T) {
	m := newDefault(t)
	vscs := units.Linspace(-0.9, 0.4, 601) // three stack chunks
	out := make([]float64, len(vscs))
	m.SampleNS(vscs, out)
	pair := make([]float64, 2)
	for i, v := range vscs {
		m.SampleNS([]float64{v, vscs[0]}, pair) // vscs[0] is the top Fermi level
		if pair[0] != out[i] {
			t.Fatalf("sample %d: batch %.17g, pair %.17g", i, out[i], pair[0])
		}
	}
	alias := append([]float64(nil), vscs...)
	m.SampleNS(alias, alias)
	for i := range alias {
		if alias[i] != out[i] {
			t.Fatalf("aliased sample %d: %.17g vs %.17g", i, alias[i], out[i])
		}
	}

	// At 150 K, 600 kT ≈ 7.8 eV: a sample 10 V away drops out of the
	// shared rule and is integrated by N.
	cold := Default()
	cold.T = 150
	mc, err := New(cold)
	if err != nil {
		t.Fatal(err)
	}
	far := []float64{-0.3, 10}
	got := make([]float64, 2)
	mc.SampleNS(far, got)
	if want := 0.5 * units.Q * mc.N(cold.EF-10); got[1] != want {
		t.Fatalf("out-of-span sample %.17g, N gives %.17g", got[1], want)
	}
}

func TestSampleNSCounters(t *testing.T) {
	m := newDefault(t)
	i0, _ := m.Counters()
	m.SampleNS(units.Linspace(-0.6, 0.3, 240), make([]float64, 240))
	i1, _ := m.Counters()
	if i1-i0 != 240 {
		t.Fatalf("integrals %d -> %d, want +240 (one per sample)", i0, i1)
	}
}

func BenchmarkSampleNS(b *testing.B) {
	m, err := New(Default())
	if err != nil {
		b.Fatal(err)
	}
	vscs := units.Linspace(-0.87, 0.03, 240)
	out := make([]float64, len(vscs))
	b.ReportAllocs()
	for b.Loop() {
		m.SampleNS(vscs, out)
	}
}

func TestSampleNAccuracy(t *testing.T) {
	temps := []float64{150, 300, 450}
	if testing.Short() {
		temps = []float64{150}
	}
	// |Δ| ≤ 1e-12·D0 for N; N′ peaks at ~D0/kT, so its bound adds
	// 1e-11 relative.
	bound := 1e-12 * bandstruct.D0()
	worst, worstP := 0.0, 0.0
	for name, base := range sampleDevices() {
		for _, temp := range temps {
			dev := base
			dev.T = temp
			m, err := New(dev)
			if err != nil {
				t.Fatal(err)
			}
			ref := preciseModel(t, dev)
			// One chunk spanning the table's default window, and one short
			// chunk low on the axis with its own coarser rule.
			for _, us := range [][]float64{
				units.Linspace(dev.EF-1.3, dev.EF+1.4, tableChunk),
				units.Linspace(dev.EF-1.3, dev.EF-0.9, 5),
			} {
				n, np := make([]float64, len(us)), make([]float64, len(us))
				m.sampleN(us, n, np)
				nOnly := make([]float64, len(us))
				m.sampleN(us, nOnly, nil)
				for i, u := range us {
					if nOnly[i] != n[i] {
						t.Fatalf("%s T=%g: N(%g) %.17g alone, %.17g beside N′", name, temp, u, nOnly[i], n[i])
					}
					wantP := ref.NPrime(u)
					d, dp := math.Abs(n[i]-ref.N(u)), math.Abs(np[i]-wantP)
					worst, worstP = math.Max(worst, d), math.Max(worstP, dp)
					if !(d <= bound && dp <= bound+1e-11*math.Abs(wantP)) {
						t.Fatalf("%s T=%g: u=%g: N %.17g vs %.17g, N′ %.17g vs %.17g",
							name, temp, u, n[i], ref.N(u), np[i], ref.NPrime(u))
					}
				}
			}
		}
	}
	t.Logf("worst |Δ| N %.3g·D0, N′ %.3g·D0/eV", worst/bandstruct.D0(), worstP/bandstruct.D0())

	// At 150 K, 600 kT ≈ 7.8 eV: a level 9 eV below the batch's top
	// drops out of the shared rule and is integrated by N and NPrime.
	cold := Default()
	cold.T = 150
	mc, err := New(cold)
	if err != nil {
		t.Fatal(err)
	}
	n, np := make([]float64, 2), make([]float64, 2)
	mc.sampleN([]float64{-9, 0}, n, np)
	if n[0] != mc.N(-9) || np[0] != mc.NPrime(-9) {
		t.Fatalf("out-of-span sample (%.17g, %.17g), N and NPrime give (%.17g, %.17g)", n[0], np[0], mc.N(-9), mc.NPrime(-9))
	}
}
