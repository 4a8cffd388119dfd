package sweep

import (
	"context"
	"errors"
	"math"
	"testing"

	"cntfet/internal/device"
	"cntfet/internal/fettoy"
)

// fake is a deterministic current source for metric tests.
type fake struct {
	f   func(fettoy.Bias) float64
	err error
}

func (f fake) IDS(b fettoy.Bias) (float64, error) {
	if f.err != nil {
		return 0, f.err
	}
	return f.f(b), nil
}

func linearModel(gain float64) fake {
	return fake{f: func(b fettoy.Bias) float64 { return gain * b.VG * b.VD }}
}

// family runs the scheduler into a Collect sink: the buffered sweep.
func family(ctx context.Context, m device.Solver, vgs, vds []float64, workers int) ([]Curve, error) {
	var fam []Curve
	if err := FamilyParallelTo(ctx, m, vgs, vds, workers, Collect(&fam)); err != nil {
		return nil, err
	}
	return fam, nil
}

// traceFamily is the per-point reference family the scheduler is
// tested against: one cold Trace per gate voltage.
func traceFamily(t *testing.T, m device.Solver, vgs, vds []float64) []Curve {
	t.Helper()
	fam := make([]Curve, len(vgs))
	for i, vg := range vgs {
		c, err := Trace(m, vg, vds)
		if err != nil {
			t.Fatal(err)
		}
		fam[i] = c
	}
	return fam
}

func TestTraceShape(t *testing.T) {
	c, err := Trace(linearModel(1), 0.5, []float64{0, 0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if c.VG != 0.5 || len(c.IDS) != 3 {
		t.Fatalf("curve = %+v", c)
	}
	if c.IDS[2] != 0.1 {
		t.Fatalf("IDS[2] = %g", c.IDS[2])
	}
}

func TestTracePropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	if _, err := Trace(fake{err: sentinel}, 0.5, []float64{0.1}); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestTraceCopiesGrid(t *testing.T) {
	grid := []float64{0, 0.1}
	c, _ := Trace(linearModel(1), 0.3, grid)
	grid[0] = 99
	if c.VDS[0] == 99 {
		t.Fatal("Trace aliases the caller's grid")
	}
}

func TestFamilyOrder(t *testing.T) {
	fam, err := family(context.Background(), linearModel(1), []float64{0.1, 0.2}, []float64{0.5}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(fam) != 2 || fam[0].VG != 0.1 || fam[1].VG != 0.2 {
		t.Fatalf("family = %+v", fam)
	}
}

func TestGridsMatchPaper(t *testing.T) {
	g := Grid()
	if len(g) != 61 || g[0] != 0 || g[60] != 0.6 {
		t.Fatalf("VDS grid %v", g[:2])
	}
	pg := PaperGates()
	if len(pg) != 7 || pg[0] != 0.3 || pg[6] != 0.6 {
		t.Fatalf("paper gates %v", pg)
	}
	tg := TableGates()
	if len(tg) != 6 || math.Abs(tg[1]-0.2) > 1e-12 {
		t.Fatalf("table gates %v", tg)
	}
}

func TestRMSPercentExactValues(t *testing.T) {
	ref := Curve{IDS: []float64{1, 1, 1, 1}}
	model := Curve{IDS: []float64{1.1, 0.9, 1.1, 0.9}}
	got, err := RMSPercent(model, ref)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-9 {
		t.Fatalf("rms%% = %g, want 10", got)
	}
}

func TestRMSPercentIdenticalIsZero(t *testing.T) {
	c := Curve{IDS: []float64{1, 2, 3}}
	if got, _ := RMSPercent(c, c); got != 0 {
		t.Fatalf("rms%% = %g", got)
	}
}

func TestRMSPercentErrors(t *testing.T) {
	if _, err := RMSPercent(Curve{IDS: []float64{1}}, Curve{IDS: []float64{1, 2}}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := RMSPercent(Curve{}, Curve{}); err == nil {
		t.Fatal("empty curves accepted")
	}
	if _, err := RMSPercent(Curve{IDS: []float64{0}}, Curve{IDS: []float64{0}}); err == nil {
		t.Fatal("zero-mean reference accepted")
	}
}

func TestCompareFamilies(t *testing.T) {
	ref := traceFamily(t, linearModel(1), []float64{0.2, 0.4}, []float64{0.1, 0.2})
	model := traceFamily(t, linearModel(1.05), []float64{0.2, 0.4}, []float64{0.1, 0.2})
	errs, err := CompareFamilies(model, ref)
	if err != nil {
		t.Fatal(err)
	}
	// Each model point is 1.05x its reference, so the deviation is
	// 5% pointwise; against a curve [x, 2x] the metric evaluates to
	// 100·sqrt(mean((0.05·I)²))/mean(I) = 5·sqrt(2.5)/1.5.
	want := 5 * math.Sqrt(2.5) / 1.5
	for i, e := range errs {
		if math.Abs(e-want) > 1e-9 {
			t.Fatalf("errs[%d] = %g, want %g", i, e, want)
		}
	}
}

func TestCompareFamiliesMismatch(t *testing.T) {
	a := traceFamily(t, linearModel(1), []float64{0.2}, []float64{0.1})
	b := traceFamily(t, linearModel(1), []float64{0.3}, []float64{0.1})
	if _, err := CompareFamilies(a, b); err == nil {
		t.Fatal("gate mismatch accepted")
	}
	if _, err := CompareFamilies(a, nil); err == nil {
		t.Fatal("size mismatch accepted")
	}
}

func TestMaxCurrent(t *testing.T) {
	fam := []Curve{{IDS: []float64{1, 5}}, {IDS: []float64{3}}}
	if MaxCurrent(fam) != 5 {
		t.Fatal("MaxCurrent broken")
	}
	if MaxCurrent(nil) != 0 {
		t.Fatal("empty family should give 0")
	}
}

// Integration: the real models drive through the same interface.
func TestSweepDrivesRealModels(t *testing.T) {
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	fam, err := family(context.Background(), ref, []float64{0.4}, []float64{0, 0.3, 0.6}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fam[0].IDS[2] <= fam[0].IDS[1] || fam[0].IDS[0] != 0 {
		t.Fatalf("reference sweep shape wrong: %v", fam[0].IDS)
	}
}

func TestFamilyParallelMatchesSerial(t *testing.T) {
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	vgs := []float64{0.3, 0.5}
	vds := []float64{0, 0.2, 0.4, 0.6}
	serial := traceFamily(t, ref, vgs, vds)
	parallel, err := family(context.Background(), ref, vgs, vds, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		for j := range serial[i].IDS {
			a, b := serial[i].IDS[j], parallel[i].IDS[j]
			if math.Abs(a-b) > 1e-12*(1+math.Abs(a)) {
				t.Fatalf("curve %d point %d: %g vs %g", i, j, a, b)
			}
		}
	}
}

func TestFamilyParallelPropagatesError(t *testing.T) {
	sentinel := errors.New("device exploded")
	_, err := family(context.Background(), fake{err: sentinel}, []float64{0.1}, []float64{0.2}, 2)
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

func TestFamilyParallelDefaultWorkers(t *testing.T) {
	fam, err := family(context.Background(), linearModel(1), []float64{0.2}, []float64{0.1, 0.3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if fam[0].IDS[1] != 0.06 {
		t.Fatalf("IDS = %v", fam[0].IDS)
	}
}
