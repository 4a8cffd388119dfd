package sweep

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"cntfet/internal/core"
	"cntfet/internal/device"
	"cntfet/internal/fettoy"
)

// rowKernel is a model with the batch capability the scheduler drives.
type rowKernel interface {
	device.Solver
	device.BatchSolver
}

// TestRowsMatchRowKernel pins the scheduler's answers to the kernel it
// drives, bit for bit, on both model families at 1, 2 and 4 workers:
// every row equals IDSBatch over that row's chunks. The closed form
// has no state across points, so a piecewise row equals one whole-row
// IDSBatch at any worker count. The reference warm-starts along a
// chunk, so its rows equal a whole-row IDSBatch at one worker (the
// warm-start chain runs unbroken along each row) and the chunked
// IDSBatch otherwise.
func TestRowsMatchRowKernel(t *testing.T) {
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	ref.EnableTable(fettoy.TableOptions{})
	m1, err := core.Model1(ref)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := core.Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	vgs, vds := PaperGates(), Grid()
	for _, tc := range []struct {
		name    string
		m       rowKernel
		chunked bool
	}{
		{"model1", m1, false},
		{"model2", m2, false},
		{"reference", ref, true},
	} {
		for _, workers := range []int{1, 2, 4} {
			t.Run(fmt.Sprintf("%s/workers=%d", tc.name, workers), func(t *testing.T) {
				got, err := family(context.Background(), tc.m, vgs, vds, workers)
				if err != nil {
					t.Fatal(err)
				}
				span := len(vds)
				if tc.chunked {
					span = chunkSpan(workers, len(vgs), len(vds))
				}
				bias := make([]fettoy.Bias, len(vds))
				want := make([]float64, len(vds))
				for i, vg := range vgs {
					for j, vd := range vds {
						bias[j] = fettoy.Bias{VG: vg, VD: vd}
					}
					for lo := 0; lo < len(vds); lo += span {
						hi := min(lo+span, len(vds))
						if err := tc.m.IDSBatch(bias[lo:hi], want[lo:hi]); err != nil {
							t.Fatal(err)
						}
					}
					if got[i].VG != vg { //lint:allow floatcmp bit-for-bit equivalence is the contract
						t.Fatalf("row %d at VG=%g, want %g", i, got[i].VG, vg)
					}
					for j := range want {
						if got[i].IDS[j] != want[j] { //lint:allow floatcmp bit-for-bit equivalence is the contract
							t.Fatalf("row %d point %d: scheduler %g != IDSBatch %g", i, j, got[i].IDS[j], want[j])
						}
					}
				}
			})
		}
	}
}

// TestFamilySharesOneGrid pins the shared-grid contract: a family's
// curves share one read-only copy of the drain grid, which is never
// the caller's slice, and an append to one curve's VDS cannot write
// into another curve's.
func TestFamilySharesOneGrid(t *testing.T) {
	for _, workers := range []int{1, 3} {
		vgs, vds := grids(4, 9)
		want := append([]float64(nil), vds...)
		fam, err := family(context.Background(), batchFake{gain: 1}, vgs, vds, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range fam {
			if &c.VDS[0] != &fam[0].VDS[0] {
				t.Fatalf("workers=%d: curve %d has its own grid", workers, i)
			}
			if cap(c.VDS) != len(c.VDS) {
				t.Fatalf("workers=%d: curve %d VDS has capacity %d beyond its %d points", workers, i, cap(c.VDS), len(c.VDS))
			}
		}
		if &fam[0].VDS[0] == &vds[0] {
			t.Fatalf("workers=%d: the family's grid is the caller's slice", workers)
		}
		for i := range vds {
			vds[i] = -1
		}
		grown := append(fam[0].VDS, 42)
		grown[0] = 42
		for i, c := range fam {
			for j := range want {
				if c.VDS[j] != want[j] { //lint:allow floatcmp the grid must be the caller's values, copied exactly
					t.Fatalf("workers=%d: curve %d VDS[%d] = %g, want %g", workers, i, j, c.VDS[j], want[j])
				}
			}
		}
	}
}

// TestConcurrentFamiliesShareNoState runs families of different shapes
// from several goroutines at once, so pooled jobs, row states and bias
// scratch pass between sweeps of different sizes and worker counts
// while others are running: every family must still equal its
// per-point Trace family, and none may see another's grid.
func TestConcurrentFamiliesShareNoState(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vgs, vds := grids(3+g, 7+5*g)
			m := batchFake{gain: float64(g + 1)}
			want := make([]Curve, len(vgs))
			for i, vg := range vgs {
				c, err := Trace(m, vg, vds)
				if err != nil {
					t.Error(err)
					return
				}
				want[i] = c
			}
			for i := range 25 {
				fam, err := family(context.Background(), m, vgs, vds, 1+(g+i)%4)
				if err != nil {
					t.Error(err)
					return
				}
				if len(fam) != len(want) {
					t.Errorf("goroutine %d: %d curves, want %d", g, len(fam), len(want))
					return
				}
				for r := range want {
					if !slices.Equal(fam[r].VDS, want[r].VDS) || !slices.Equal(fam[r].IDS, want[r].IDS) {
						t.Errorf("goroutine %d run %d row %d: got %v/%v, want %v/%v", g, i, r, fam[r].VDS, fam[r].IDS, want[r].VDS, want[r].IDS)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestFamilyAllocBudget holds FamilyParallelTo to the curves it hands
// out: one IDS per row and one shared grid, plus one goroutine closure
// per extra worker — the job, its row states and the bias scratch are
// pooled. The byte budget adds a fixed 512 B for those closures and the
// occasional pool refill when the calling goroutine resumes on another
// P. The parent scheduler, which copied the grid into every row and
// built its task channel, emitter, job state and scratch per call,
// took 26, 28 and 32 allocations (about 9.9, 10.8 and 10.3 KB on a
// 2-core Xeon) at 1, 2 and 4 workers on this 7×61 family, with the
// same no-op emit.
func TestFamilyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	m1, err := core.Model1(ref)
	if err != nil {
		t.Fatal(err)
	}
	vgs, vds := PaperGates(), Grid()
	drop := func(int, Curve) error { return nil }
	// A row is 61 float64s, which the allocator rounds up to 512 B.
	const rowBytes = 512
	for _, workers := range []int{1, 2, 4} {
		run := func() {
			if err := FamilyParallelTo(context.Background(), m1, vgs, vds, workers, drop); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill the pools
		allocs := testing.AllocsPerRun(50, run)
		if limit := float64(len(vgs) + 1 + workers - 1); allocs > limit {
			t.Errorf("workers=%d: %.1f allocations per family, want <= %.0f (rows, grid, one per extra worker)", workers, allocs, limit)
		}
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			run()
		}
		runtime.ReadMemStats(&after)
		bytes := (after.TotalAlloc - before.TotalAlloc) / runs
		if limit := uint64((len(vgs)+1)*rowBytes + 512); bytes > limit {
			t.Errorf("workers=%d: %d B per family, want <= %d (rows, grid, fixed overhead)", workers, bytes, limit)
		}
	}
}
