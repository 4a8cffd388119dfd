package sweep

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"cntfet/internal/fettoy"
)

// batchFake is a deterministic device.BatchSolver for emitter tests.
// slowVG injects latency into rows at that gate voltage so the
// parallel scheduler completes rows out of order.
type batchFake struct {
	gain   float64
	slowVG float64
}

func (f batchFake) IDS(b fettoy.Bias) (float64, error) {
	if b.VG == f.slowVG { //lint:allow floatcmp test fixture keyed on exact grid values
		time.Sleep(2 * time.Millisecond)
	}
	return f.gain * b.VG * b.VD, nil
}

func (f batchFake) IDSBatch(bias []fettoy.Bias, out []float64) error {
	for i, b := range bias {
		ids, err := f.IDS(b)
		if err != nil {
			return err
		}
		out[i] = ids
	}
	return nil
}

// vgFail errors on every point of one gate row.
type vgFail struct {
	badVG float64
}

func (m vgFail) IDS(b fettoy.Bias) (float64, error) {
	if b.VG == m.badVG { //lint:allow floatcmp test fixture keyed on exact grid values
		return 0, errors.New("bad row")
	}
	return b.VG * b.VD, nil
}

func grids(ng, nd int) (vgs, vds []float64) {
	vgs = make([]float64, ng)
	for i := range vgs {
		vgs[i] = 0.1 + 0.05*float64(i)
	}
	vds = make([]float64, nd)
	for i := range vds {
		vds[i] = 0.01 * float64(i)
	}
	return vgs, vds
}

func sameFamily(t *testing.T, got, want []Curve) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("family sizes differ: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if got[i].VG != want[i].VG { //lint:allow floatcmp bit-for-bit equivalence is the contract
			t.Fatalf("row %d: VG %g vs %g", i, got[i].VG, want[i].VG)
		}
		for j := range want[i].IDS {
			if got[i].IDS[j] != want[i].IDS[j] { //lint:allow floatcmp bit-for-bit equivalence is the contract
				t.Fatalf("row %d point %d: %g vs %g", i, j, got[i].IDS[j], want[i].IDS[j])
			}
		}
	}
}

// TestFamilyBatchToEmitsRowsIncrementally checks that a one-worker
// sweep delivers one row per gate, in order, before the call returns —
// the property the streaming server is built on.
func TestFamilyBatchToEmitsRowsIncrementally(t *testing.T) {
	vgs, vds := grids(5, 12)
	want := traceFamily(t, linearModel(3), vgs, vds)
	var gis []int
	var rows []Curve
	err := FamilyParallelTo(context.Background(), batchFake{gain: 3}, vgs, vds, 1, func(gi int, c Curve) error {
		gis = append(gis, gi)
		rows = append(rows, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, gi := range gis {
		if gi != i {
			t.Fatalf("emit order %v, want 0..%d", gis, len(vgs)-1)
		}
	}
	sameFamily(t, rows, want)
}

// TestOneWorkerHoldsOneRow pins the streaming memory bound: a row is
// allocated on its first chunk and handed off when emitted, so a
// one-worker sweep whose consumer drops rows holds at most one
// unemitted row. At every emission the sweep's cumulative allocation
// stays within the rows emitted so far plus the current row, the bias
// scratch and slack; a scheduler that allocated the whole family up
// front would already be the full grid ahead at the first emission.
func TestOneWorkerHoldsOneRow(t *testing.T) {
	const ng, nd = 32, 4096
	vgs, vds := grids(ng, nd)
	const rowBytes = 2 * 8 * nd // a row's IDS plus as much again for the shared grid; the bias scratch is this size
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.TotalAlloc
	emitted := 0
	err := FamilyParallelTo(context.Background(), batchFake{gain: 1}, vgs, vds, 1, func(gi int, c Curve) error {
		runtime.ReadMemStats(&ms)
		if got, limit := ms.TotalAlloc-base, uint64(gi+3)*rowBytes; got > limit {
			t.Errorf("row %d: %d bytes allocated, want <= %d (%d rows' worth)", gi, got, limit, gi+3)
		}
		emitted++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if emitted != ng {
		t.Fatalf("%d rows emitted, want %d", emitted, ng)
	}
}

// TestFamilyParallelToOrderedDelivery checks the ordering invariant:
// the scheduler completes chunks out of order (the first row is
// artificially slow), yet rows are emitted in gate order and the
// assembled family is bit-identical to the per-point Trace family.
func TestFamilyParallelToOrderedDelivery(t *testing.T) {
	vgs, vds := grids(7, 33)
	want := traceFamily(t, linearModel(2), vgs, vds)
	for _, workers := range []int{1, 2, 4, 9} {
		var gis []int
		var rows []Curve
		err := FamilyParallelTo(context.Background(), batchFake{gain: 2, slowVG: vgs[0]}, vgs, vds, workers, func(gi int, c Curve) error {
			gis = append(gis, gi)
			rows = append(rows, c)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, gi := range gis {
			if gi != i {
				t.Fatalf("workers=%d: emit order %v, want in-order", workers, gis)
			}
		}
		sameFamily(t, rows, want)
	}
}

// TestEmitErrorAborts checks that a failing sink aborts the sweep
// promptly, on the per-point and the batched path, and surfaces the
// sink's error unchanged.
func TestEmitErrorAborts(t *testing.T) {
	sentinel := errors.New("sink full")
	vgs, vds := grids(6, 20)
	for name, run := range map[string]func(emit func(int, Curve) error) error{
		"per-point": func(emit func(int, Curve) error) error {
			return FamilyParallelTo(context.Background(), linearModel(1), vgs, vds, 1, emit)
		},
		"batch": func(emit func(int, Curve) error) error {
			return FamilyParallelTo(context.Background(), batchFake{gain: 1}, vgs, vds, 1, emit)
		},
		"parallel": func(emit func(int, Curve) error) error {
			return FamilyParallelTo(context.Background(), batchFake{gain: 1}, vgs, vds, 4, emit)
		},
	} {
		seen := 0
		err := run(func(gi int, c Curve) error {
			if gi >= 2 {
				return sentinel
			}
			seen++
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("%s: error = %v, want sink sentinel", name, err)
		}
		if seen != 2 {
			t.Fatalf("%s: %d rows delivered before abort, want 2", name, seen)
		}
	}
}

// TestParallelEmitHaltsAtBadRow checks that a numerically failing row
// stops emission at the failure frontier — a streaming consumer never
// sees rows past the first bad one — while the sweep still returns
// the underlying error.
func TestParallelEmitHaltsAtBadRow(t *testing.T) {
	vgs, vds := grids(5, 16)
	var gis []int
	err := FamilyParallelTo(context.Background(), vgFail{badVG: vgs[1]}, vgs, vds, 3, func(gi int, c Curve) error {
		gis = append(gis, gi)
		return nil
	})
	if err == nil {
		t.Fatal("numerical failure swallowed")
	}
	for _, gi := range gis {
		if gi >= 1 {
			t.Fatalf("row %d emitted past the failing row; order %v", gi, gis)
		}
	}
}

// TestFamilyWrappersUnchanged pins the buffered form (a Collect sink)
// against the per-point Trace family.
func TestFamilyWrappersUnchanged(t *testing.T) {
	vgs, vds := grids(4, 25)
	want := traceFamily(t, linearModel(5), vgs, vds)
	for _, workers := range []int{1, 3} {
		got, err := family(context.Background(), batchFake{gain: 5}, vgs, vds, workers)
		if err != nil {
			t.Fatal(err)
		}
		sameFamily(t, got, want)
	}
}
