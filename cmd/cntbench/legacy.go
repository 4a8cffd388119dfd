package main

import (
	"fmt"
	"runtime"
	"sync"

	"cntfet/internal/device"
	"cntfet/internal/fettoy"
	"cntfet/internal/sweep"
	"cntfet/internal/telemetry"
)

// familyLegacy is the pre-chunking family scheduler, kept as the
// "before" half of the -sweepbench comparison: one bias point per
// task, cold solves, no cancellation. It records sweep.points,
// sweep.errors and (telemetry on) sweep.worker.N.points and the
// per-worker timers exactly as the library scheduler does, so the two
// paths' counter deltas compare like for like. workers <= 0 selects
// GOMAXPROCS.
func familyLegacy(m device.Solver, vgs, vds []float64, workers int) ([]sweep.Curve, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	out := make([]sweep.Curve, len(vgs))
	for i, vg := range vgs {
		out[i] = sweep.Curve{VG: vg, VDS: append([]float64(nil), vds...), IDS: make([]float64, len(vds))}
	}

	type task struct{ gi, vi int }
	tasks := make(chan task, workers)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error

	on := telemetry.On()
	reg := telemetry.Default()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var points, errs int64
			if on {
				defer reg.Timer(fmt.Sprintf(telemetry.KeySweepWorkerTimeFmt, w)).Start()()
			}
			defer func() {
				if points != 0 {
					reg.Counter(telemetry.KeySweepPoints).Add(points)
				}
				if errs != 0 {
					reg.Counter(telemetry.KeySweepErrors).Add(errs)
				}
				if on && points != 0 {
					reg.Counter(fmt.Sprintf(telemetry.KeySweepWorkerPointsFmt, w)).Add(points)
				}
			}()
			for tk := range tasks {
				ids, err := m.IDS(fettoy.Bias{VG: vgs[tk.gi], VD: vds[tk.vi]})
				if err != nil {
					errs++
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("sweep: VG=%g VDS=%g: %w", vgs[tk.gi], vds[tk.vi], err)
					}
					mu.Unlock()
					continue
				}
				points++
				out[tk.gi].IDS[tk.vi] = ids
			}
		}(w)
	}
	for gi := range vgs {
		for vi := range vds {
			tasks <- task{gi, vi}
		}
	}
	close(tasks)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}
