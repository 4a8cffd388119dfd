package sweep

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"cntfet/internal/core"
	"cntfet/internal/device"
	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// TestFamilyBatchBitForBitPiecewise pins the one-worker (whole-row
// batch) path against the per-point Trace family for both paper
// models: IDSBatch runs the same closed-form solve per point, so the
// curves must be identical to the last bit.
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
		want := traceFamily(t, m, vgs, vds)
		batched, err := family(context.Background(), m, vgs, vds, 1)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			for j := range want[i].IDS {
				if want[i].IDS[j] != batched[i].IDS[j] {
					t.Fatalf("%s curve %d point %d: trace %g != batch %g",
						name, i, j, want[i].IDS[j], batched[i].IDS[j])
				}
			}
		}
	}
}

// TestOneWorkerMatchesWholeRowBatch pins the one-worker schedule: each
// chunk is one whole VDS row, so the output is bit for bit a direct
// IDSBatch of every row — including the reference model, whose
// warm-start chain would differ if a row were split — on grids with
// fewer gates than the four-chunks-per-worker heuristic assumes.
func TestOneWorkerMatchesWholeRowBatch(t *testing.T) {
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	tabled, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	tabled.EnableTable(fettoy.TableOptions{})
	m1, err := core.Model1(ref)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := core.Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	vds := Grid()
	for _, tc := range []struct {
		name  string
		model interface {
			device.Solver
			device.BatchSolver
		}
	}{
		{"model1", m1},
		{"model2", m2},
		{"reference", ref},
		{"reference+table", tabled},
	} {
		for _, g := range []int{1, 2, 3, 7} {
			t.Run(fmt.Sprintf("%s/G=%d", tc.name, g), func(t *testing.T) {
				vgs := PaperGates()[:g]
				got, err := family(context.Background(), tc.model, vgs, vds, 1)
				if err != nil {
					t.Fatal(err)
				}
				bias := make([]fettoy.Bias, len(vds))
				want := make([]float64, len(vds))
				for i, vg := range vgs {
					for j, vd := range vds {
						bias[j] = fettoy.Bias{VG: vg, VD: vd}
					}
					if err := tc.model.IDSBatch(bias, want); err != nil {
						t.Fatal(err)
					}
					for j := range want {
						if got[i].IDS[j] != want[j] { //lint:allow floatcmp bit-for-bit equivalence is the contract
							t.Fatalf("row %d point %d: scheduler %g != whole-row IDSBatch %g", i, j, got[i].IDS[j], want[j])
						}
					}
				}
			})
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
	serial := traceFamily(t, ref, vgs, vds)
	batched, err := family(context.Background(), ref, vgs, vds, 1)
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
	fam, err := family(context.Background(), linearModel(2), []float64{0.5}, []float64{0.1, 0.2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if fam[0].IDS[1] != 0.2 {
		t.Fatalf("IDS = %v", fam[0].IDS)
	}
}

func TestFamilyBatchPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	if _, err := family(context.Background(), fake{err: sentinel}, []float64{0.1}, []float64{0.2}, 1); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
}

// TestFamilyParallelMatchesLegacy pins the chunked scheduler on the
// reference model with a table attached — the configuration the
// benchmark quotes — against what the legacy point-per-task scheduler
// computes: one cold, untabulated IDS per point, which is Trace.
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
	legacy := traceFamily(t, refA, vgs, vds)
	chunked, err := family(context.Background(), refB, vgs, vds, 4)
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

// TestFamilyParallelCountsAllErrors checks that every failed point
// lands in sweep.errors — not just the first — with the telemetry gate
// off, at one worker and at several.
func TestFamilyParallelCountsAllErrors(t *testing.T) {
	telemetry.Disable()
	reg := telemetry.Default()
	for _, workers := range []int{1, 3} {
		mark := reg.CounterMark(nil)
		vds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6} // 0.2, 0.4, 0.6 fail
		_, err := family(context.Background(), errEvery{n: 2}, []float64{1, 2}, vds, workers)
		if err == nil {
			t.Fatalf("workers=%d: errors swallowed", workers)
		}
		d := reg.CounterDelta(mark)
		if got := d["sweep.errors"]; got != 6 {
			t.Fatalf("workers=%d: sweep.errors advanced by %d, want 6", workers, got)
		}
		if got := d["sweep.points"]; got != 6 {
			t.Fatalf("workers=%d: sweep.points advanced by %d, want 6 successes", workers, got)
		}
	}
}

// TestFamilyParallelBatchedChunksBitForBit pins the scheduler's
// batched-chunk path for the piecewise models: each chunk goes through
// the zero-alloc row kernel, and the closed-form solve has no
// cross-point iteration state, so the curves must match the per-point
// Trace family to the last bit — for any worker count, including
// oversubscription.
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
		serial := traceFamily(t, m, vgs, vds)
		for _, workers := range []int{1, 3, 8} {
			par, err := family(context.Background(), m, vgs, vds, workers)
			if err != nil {
				t.Fatal(err)
			}
			for i := range serial {
				for j := range serial[i].IDS {
					if serial[i].IDS[j] != par[i].IDS[j] {
						t.Fatalf("%s workers=%d curve %d point %d: trace %g != scheduler %g",
							name, workers, i, j, serial[i].IDS[j], par[i].IDS[j])
					}
				}
			}
		}
	}
}
