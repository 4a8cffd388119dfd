package cntfet

import (
	"context"
	"math"
	"testing"
)

func TestPublicQuickstartPath(t *testing.T) {
	dev := DefaultDevice()
	fast, err := NewModel2(dev)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := fast.IDS(Bias{VG: 0.6, VD: 0.6})
	if err != nil {
		t.Fatal(err)
	}
	if ids < 1e-6 || ids > 1e-4 {
		t.Fatalf("quickstart IDS = %g A", ids)
	}
}

func TestTransistorInterfaceInterchangeable(t *testing.T) {
	dev := DefaultDevice()
	ref, err := NewReference(dev)
	if err != nil {
		t.Fatal(err)
	}
	m1, err := NewModel1(dev)
	if err != nil {
		t.Fatal(err)
	}
	models := []Transistor{ref, m1}
	b := Bias{VG: 0.5, VD: 0.4}
	var currents []float64
	for _, m := range models {
		op, err := m.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		currents = append(currents, op.IDS)
	}
	if rel := math.Abs(currents[1]-currents[0]) / currents[0]; rel > 0.15 {
		t.Fatalf("models disagree by %.0f%%", 100*rel)
	}
}

func TestFamilyAndMetricsEndToEnd(t *testing.T) {
	dev := DefaultDevice()
	ref, err := NewReference(dev)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := FitFrom(ref, Model2Spec(), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	vgs := []float64{0.4, 0.6}
	vds := []float64{0, 0.2, 0.4, 0.6}
	famRef, err := Family(context.Background(), ref, vgs, vds, 1)
	if err != nil {
		t.Fatal(err)
	}
	famFast, err := Family(context.Background(), m2, vgs, vds, 1)
	if err != nil {
		t.Fatal(err)
	}
	errs, err := CompareFamilies(famFast, famRef)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range errs {
		if e > 5 {
			t.Fatalf("VG=%g: error %.2f%% exceeds the paper's band", vgs[i], e)
		}
	}
}

func TestCustomSpecThroughPublicAPI(t *testing.T) {
	// A five-piece model (the paper's "more sections" extension).
	spec := Spec{
		Name:     "Model 3",
		Breaks:   []float64{-0.3, -0.1, 0.0, 0.12},
		Degrees:  []int{1, 2, 3, 3},
		ZeroTail: true,
	}
	m, err := NewPiecewise(DefaultDevice(), spec, FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ids, err := m.IDS(Bias{VG: 0.5, VD: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if ids <= 0 {
		t.Fatalf("custom spec IDS = %g", ids)
	}
}

func TestWideCustomSpecSolves(t *testing.T) {
	// Six regions (five breaks): exercises the fast solver's candidate
	// buffer beyond the paper models (regression for a buffer overrun)
	// and the even wider eight-break spec that falls back to the
	// generic path.
	for _, breaks := range [][]float64{
		{-0.4, -0.25, -0.12, -0.02, 0.12},
		{-0.5, -0.42, -0.34, -0.26, -0.18, -0.1, -0.02, 0.12},
	} {
		degrees := make([]int, len(breaks))
		degrees[0] = 1
		for i := 1; i < len(degrees); i++ {
			degrees[i] = 3
		}
		degrees[1] = 2
		spec := Spec{Name: "wide", Breaks: breaks, Degrees: degrees, ZeroTail: true}
		m, err := NewPiecewise(DefaultDevice(), spec, FitOptions{})
		if err != nil {
			t.Fatalf("%d breaks: %v", len(breaks), err)
		}
		for vd := 0.0; vd <= 0.6; vd += 0.1 {
			if _, err := m.IDS(Bias{VG: 0.5, VD: vd}); err != nil {
				t.Fatalf("%d breaks, VD=%g: %v", len(breaks), vd, err)
			}
		}
	}
}

func TestQualityExposed(t *testing.T) {
	ref, err := NewReference(DefaultDevice())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := FitFrom(ref, Model2Spec(), FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	q := Quality(ref, m2, FitOptions{})
	if q.RMS <= 0 || q.RMSRel <= 0 {
		t.Fatalf("quality = %+v", q)
	}
}

func TestJaveyDeviceExposed(t *testing.T) {
	dev := JaveyDevice()
	if dev.Geometry != Planar || dev.Tox != 50e-9 {
		t.Fatalf("Javey device %+v", dev)
	}
	if _, err := NewModel1(dev); err != nil {
		t.Fatal(err)
	}
}

func TestInvalidDeviceSurfacesError(t *testing.T) {
	dev := DefaultDevice()
	dev.Diameter = -1
	if _, err := NewReference(dev); err == nil {
		t.Fatal("invalid device accepted by NewReference")
	}
	if _, err := NewModel1(dev); err == nil {
		t.Fatal("invalid device accepted by NewModel1")
	}
	if _, err := NewModel2(dev); err == nil {
		t.Fatal("invalid device accepted by NewModel2")
	}
	if _, err := NewPiecewise(dev, Model1Spec(), FitOptions{}); err == nil {
		t.Fatal("invalid device accepted by NewPiecewise")
	}
}
