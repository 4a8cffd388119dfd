package sweep

import (
	"context"
	"errors"
	"math"
	"testing"

	"cntfet/internal/core"
	"cntfet/internal/device"
	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// TestFamilyBatchBitForBitPiecewise pins the batched path against the
// serial one for both paper models: IDSBatch runs the same closed-form
// solve per point, so the curves must be identical to the last bit.
func TestFamilyBatchBitForBitPiecewise(t *testing.T) {
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	vgs := PaperGates()
	vds := Grid()
	for name, build := range map[string]func(*fettoy.Model) (*core.Model, error){
		"model1": core.Model1,
		"model2": core.Model2,
	} {
		m, err := build(ref)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		serial, err := Family(context.Background(), m, vgs, vds)
		if err != nil {
			t.Fatal(err)
		}
		batched, err := FamilyBatch(context.Background(), m, vgs, vds)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial {
			for j := range serial[i].IDS {
				if serial[i].IDS[j] != batched[i].IDS[j] {
					t.Fatalf("%s curve %d point %d: serial %g != batch %g",
						name, i, j, serial[i].IDS[j], batched[i].IDS[j])
				}
			}
		}
	}
}

// TestFamilyBatchReferenceModel checks the warm-started reference path:
// continuation lands on the same roots as independent cold solves
// (Newton converges to 1e-12, so 1e-9 relative is generous).
func TestFamilyBatchReferenceModel(t *testing.T) {
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	vgs := []float64{0.3, 0.6}
	vds := []float64{0, 0.15, 0.3, 0.45, 0.6}
	serial, err := Family(context.Background(), ref, vgs, vds)
	if err != nil {
		t.Fatal(err)
	}
	batched, err := FamilyBatch(context.Background(), ref, vgs, vds)
	if err != nil {
		t.Fatal(err)
	}
	for i := range serial {
		for j := range serial[i].IDS {
			a, b := serial[i].IDS[j], batched[i].IDS[j]
			if math.Abs(a-b) > 1e-9*(1+math.Abs(a)) {
				t.Fatalf("curve %d point %d: %g vs %g", i, j, a, b)
			}
		}
	}
}

// TestFamilyBatchFallsBackToSerial checks that a model without an
// IDSBatch method still sweeps through the plain interface.
func TestFamilyBatchFallsBackToSerial(t *testing.T) {
	fam, err := FamilyBatch(context.Background(), linearModel(2), []float64{0.5}, []float64{0.1, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if fam[0].IDS[1] != 0.2 {
		t.Fatalf("IDS = %v", fam[0].IDS)
	}
}

func TestFamilyBatchPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	if _, err := FamilyBatch(context.Background(), fake{err: sentinel}, []float64{0.1}, []float64{0.2}); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

// TestFamilyParallelMatchesLegacy pins the chunked scheduler against
// the point-per-task one on the reference model with a table attached —
// the configuration the benchmark quotes.
func TestFamilyParallelMatchesLegacy(t *testing.T) {
	dev := fettoy.Default()
	refA, err := fettoy.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := fettoy.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	refB.EnableTable(fettoy.TableOptions{})
	vgs := PaperGates()
	vds := []float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	legacy, err := FamilyParallelLegacy(refA, vgs, vds, 4)
	if err != nil {
		t.Fatal(err)
	}
	chunked, err := FamilyParallel(context.Background(), refB, vgs, vds, 4)
	if err != nil {
		t.Fatal(err)
	}
	rms, err := CompareFamilies(chunked, legacy)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range rms {
		if e > 1e-3 {
			t.Fatalf("gate %d: tabulated chunked sweep off by %g%% RMS", i, e)
		}
	}
}

// errEvery fails on selected points, to exercise partial-failure
// accounting.
type errEvery struct {
	n int // every n-th VDS index errors (by value match)
}

func (e errEvery) IDS(b fettoy.Bias) (float64, error) {
	if int(math.Round(b.VD*10))%e.n == 0 {
		return 0, errors.New("bad point")
	}
	return b.VG * b.VD, nil
}

// TestFamilyParallelCountsAllErrors checks the satellite requirement:
// every failed point lands in sweep.errors — not just the first — and
// with the telemetry gate off.
func TestFamilyParallelCountsAllErrors(t *testing.T) {
	telemetry.Disable()
	reg := telemetry.Default()
	for name, run := range map[string]func(m device.Solver, vgs, vds []float64, workers int) ([]Curve, error){
		"chunked": func(m device.Solver, vgs, vds []float64, workers int) ([]Curve, error) {
			return FamilyParallel(context.Background(), m, vgs, vds, workers)
		},
		"legacy": FamilyParallelLegacy,
	} {
		mark := reg.CounterMark(nil)
		vds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6} // 0.2, 0.4, 0.6 fail
		_, err := run(errEvery{n: 2}, []float64{1, 2}, vds, 3)
		if err == nil {
			t.Fatalf("%s: errors swallowed", name)
		}
		d := reg.CounterDelta(mark)
		if got := d["sweep.errors"]; got != 6 {
			t.Fatalf("%s: sweep.errors advanced by %d, want 6", name, got)
		}
		if got := d["sweep.points"]; got != 6 {
			t.Fatalf("%s: sweep.points advanced by %d, want 6 successes", name, got)
		}
	}
}

// TestFamilyParallelBatchedChunksBitForBit pins the parallel
// scheduler's batched-chunk path for the piecewise models: each chunk
// goes through the same zero-alloc row kernel the batch path uses, and
// the closed-form solve has no cross-point iteration state, so the
// curves must match the serial sweep to the last bit — for any worker
// count, including oversubscription.
func TestFamilyParallelBatchedChunksBitForBit(t *testing.T) {
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	vgs := PaperGates()
	vds := Grid()
	for name, build := range map[string]func(*fettoy.Model) (*core.Model, error){
		"model1": core.Model1,
		"model2": core.Model2,
	} {
		m, err := build(ref)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, ok := device.Solver(m).(device.BatchSolver); !ok {
			t.Fatalf("%s: model lost its BatchSolver capability", name)
		}
		serial, err := Family(context.Background(), m, vgs, vds)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 3, 8} {
			par, err := FamilyParallel(context.Background(), m, vgs, vds, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				for j := range serial[i].IDS {
					if serial[i].IDS[j] != par[i].IDS[j] {
						t.Fatalf("%s workers=%d curve %d point %d: serial %g != parallel %g",
							name, workers, i, j, serial[i].IDS[j], par[i].IDS[j])
					}
				}
			}
		}
	}
}
