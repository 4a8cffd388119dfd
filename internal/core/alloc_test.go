package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// TestIDSBatchZeroAlloc pins the serving kernel's allocation budget:
// one full VDS row through IDSBatch must not allocate, for both paper
// models, with telemetry off and on (local counter accumulation plus
// one atomic flush — no per-point instrument traffic). Skipped under
// -race, whose instrumentation allocates.
func TestIDSBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	ref := refModel(t, fettoy.Default())
	for name, build := range map[string]func(*fettoy.Model) (*Model, error){
		"model1": Model1,
		"model2": Model2,
	} {
		m, err := build(ref)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// A full paper row plus a partial trailing block, so both the
		// whole-block and remainder paths run.
		bias := make([]fettoy.Bias, 100)
		out := make([]float64, len(bias))
		for i := range bias {
			bias[i] = fettoy.Bias{VG: 0.5, VD: 0.6 * float64(i) / float64(len(bias)-1)}
		}
		for _, gate := range []bool{false, true} {
			if gate {
				telemetry.Enable()
			} else {
				telemetry.Disable()
			}
			if avg := testing.AllocsPerRun(100, func() {
				if err := m.IDSBatch(bias, out); err != nil {
					t.Fatal(err)
				}
			}); avg != 0 {
				t.Errorf("%s (telemetry=%v): IDSBatch allocates %.1f objects per row", name, gate, avg)
			}
		}
		telemetry.Disable()
	}
}

// heldObjects is the number of heap objects a fitted Model keeps, for
// either family: the Model; the u-space curve's breaks, its pieces and
// the one coefficient array its free pieces share; the VSC-space
// breaks (fastBreaks) and cubic table (fastCoef); and the subband
// ladder.
const heldObjects = 7

// TestFitAllocatesOnlyWhatModelKeeps pins a cold fit's allocation
// budget to the model it returns. Objects: testing.AllocsPerRun must
// count exactly heldObjects. Bytes: over 256 fits on fresh keys, the
// bytes allocated (runtime.MemStats.TotalAlloc, the collector off)
// must not exceed the bytes the models keep alive (HeapAlloc after
// collections with the models held, less after they are dropped) by
// more than 32 B a fit. The fit's grid, theory samples, weights and
// KKT workspace come from pools, which a collection empties, so they
// count as neither. The slack absorbs one pool miss when the test
// goroutine moves to another P (a fresh scratch set, about 6 KB) and
// the runtime's own odd allocation. Before the pools, a fit allocated
// about 5.9 KB more than its model kept. Skipped under -race, whose
// instrumentation allocates.
func TestFitAllocatesOnlyWhatModelKeeps(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, spec := range []Spec{Model1Spec(), Model2Spec()} {
		ref := refModel(t, fettoy.Default())
		var err error
		allocs := testing.AllocsPerRun(20, func() {
			if _, err = Fit(ref, spec, FitOptions{}); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != heldObjects {
			t.Errorf("%s: a fit allocates %.1f objects, its model holds %d", spec.Name, allocs, heldObjects)
		}

		const fits = 256
		refs := make([]*fettoy.Model, fits)
		for i := range refs {
			dev, _ := coldKey(i)
			refs[i] = refModel(t, dev)
		}
		models := make([]*Model, fits)
		// AllocsPerRun changed GOMAXPROCS, which drops what the pools
		// held, and a key with more free samples grows the scratch: one
		// pass over the keys leaves the pools as large as the keys need.
		for _, r := range refs {
			if _, err := Fit(r, spec, FitOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		var before, after, held, dropped runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, r := range refs {
			if models[i], err = Fit(r, spec, FitOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&held)
		clear(models)
		runtime.GC()
		runtime.ReadMemStats(&dropped)
		allocated := float64(after.TotalAlloc-before.TotalAlloc) / fits
		kept := float64(int64(held.HeapAlloc)-int64(dropped.HeapAlloc)) / fits
		t.Logf("%s: %.0f B allocated, %.0f B kept per fit", spec.Name, allocated, kept)
		if allocated > kept+32 {
			t.Errorf("%s: a fit allocates %.0f B, its model keeps %.0f B", spec.Name, allocated, kept)
		}
		runtime.KeepAlive(refs)
	}
}
