package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"cntfet"
	"cntfet/internal/sweep"
	"cntfet/internal/telemetry"
)

// The worker-scaling benchmark behind cntbench -scalebench: the paper
// grid swept through the chunked parallel scheduler at a ladder of
// worker counts, once per model family (the table-backed reference and
// the closed-form Model 1), producing BENCH_scale.json. Efficiency is
// normalised against the same family's single-worker throughput, so
// the curve reads as "what does the Nth worker buy" — on a
// GOMAXPROCS=1 machine the ladder still includes oversubscribed
// counts, which measure scheduling overhead rather than speedup, and
// the recorded gomaxprocs disambiguates that.

// scalePoint is one (family, workers) measurement.
type scalePoint struct {
	Workers      int     `json:"workers"`
	Seconds      float64 `json:"seconds"`
	PointsPerSec float64 `json:"points_per_sec"`
	// PerWorkerPointsPerSec is PointsPerSec / Workers.
	PerWorkerPointsPerSec float64 `json:"per_worker_points_per_sec"`
	// Efficiency is PointsPerSec / (Workers * single-worker
	// PointsPerSec) for the same family: 1.0 is perfect linear scaling.
	Efficiency float64          `json:"efficiency"`
	Counters   map[string]int64 `json:"counters"`
}

// scaleFamilyCurve is one model family's scaling curve.
type scaleFamilyCurve struct {
	Family string       `json:"family"`
	Points []scalePoint `json:"points"`
}

// scaleBenchDoc is the BENCH_scale.json schema.
type scaleBenchDoc struct {
	Gates   int `json:"gates"`
	Points  int `json:"points"`
	Repeats int `json:"repeats"`
	// GOMAXPROCS is the scheduler width of the measuring machine;
	// worker counts above it are oversubscribed on purpose.
	GOMAXPROCS   int                `json:"gomaxprocs"`
	WorkerCounts []int              `json:"worker_counts"`
	Families     []scaleFamilyCurve `json:"families"`
}

// defaultScaleWorkers is the ladder when -scale-workers is empty:
// powers of two from 1 through the first count at or above
// 2*GOMAXPROCS, so the curve always shows at least one oversubscribed
// point (on a 1-core machine: 1, 2).
func defaultScaleWorkers() []int {
	limit := 2 * runtime.GOMAXPROCS(0)
	var out []int
	for w := 1; ; w *= 2 {
		out = append(out, w)
		if w >= limit {
			return out
		}
	}
}

// runScaleBench measures the scaling curves and writes the JSON
// document to outPath ("-" for stdout).
func runScaleBench(points, repeats int, workerList, outPath string) error {
	if points < 2 {
		return fmt.Errorf("scalebench: need at least 2 VDS points, got %d", points)
	}
	if repeats < 1 {
		repeats = 1
	}
	counts := defaultScaleWorkers()
	if workerList != "" {
		var err error
		if counts, err = parseInts(workerList); err != nil {
			return fmt.Errorf("scalebench: %w", err)
		}
		for _, w := range counts {
			if w < 1 {
				return fmt.Errorf("scalebench: worker count %d < 1", w)
			}
		}
	}
	telemetry.Enable()
	defer telemetry.Disable()
	reg := telemetry.Default()

	dev := cntfet.DefaultDevice()
	ref, err := cntfet.NewReference(dev)
	if err != nil {
		return err
	}
	tbl := ref.EnableTable(cntfet.TableOptions{})
	m1, err := cntfet.FitFrom(ref, cntfet.Model1Spec(), cntfet.FitOptions{})
	if err != nil {
		return err
	}
	tbl.Build() // one-time tabulation outside every timed window

	vgs := sweep.PaperGates()
	vds := make([]float64, points)
	for i := range vds {
		vds[i] = 0.6 * float64(i) / float64(points-1)
	}
	grid := repeats * len(vgs) * len(vds)

	measure := func(m cntfet.Transistor, workers int) (scalePoint, error) {
		// Untimed warm-up settles one-time lazy state and the scheduler.
		if _, err := sweep.FamilyParallel(context.Background(), m, vgs, vds, workers); err != nil {
			return scalePoint{}, err
		}
		mark := reg.CounterMark(nil)
		start := time.Now()
		for i := 0; i < repeats; i++ {
			if _, err := sweep.FamilyParallel(context.Background(), m, vgs, vds, workers); err != nil {
				return scalePoint{}, err
			}
		}
		secs := time.Since(start).Seconds()
		pt := scalePoint{
			Workers:  workers,
			Seconds:  secs,
			Counters: sweepCounters(reg.CounterDelta(mark)),
		}
		if secs > 0 {
			pt.PointsPerSec = float64(grid) / secs
			pt.PerWorkerPointsPerSec = pt.PointsPerSec / float64(workers)
		}
		return pt, nil
	}

	doc := scaleBenchDoc{
		Gates:        len(vgs),
		Points:       len(vds),
		Repeats:      repeats,
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		WorkerCounts: counts,
	}
	for _, fam := range []struct {
		name  string
		model cntfet.Transistor
	}{
		{"reference", ref},
		{"model1", m1},
	} {
		curve := scaleFamilyCurve{Family: fam.name}
		var base float64
		for _, w := range counts {
			pt, err := measure(fam.model, w)
			if err != nil {
				return fmt.Errorf("scalebench: %s at %d workers: %w", fam.name, w, err)
			}
			if w == 1 {
				base = pt.PointsPerSec
			}
			if base > 0 {
				pt.Efficiency = pt.PointsPerSec / (float64(w) * base)
			}
			curve.Points = append(curve.Points, pt)
		}
		doc.Families = append(doc.Families, curve)
	}

	var w io.Writer = os.Stdout
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return fmt.Errorf("scalebench: %w", err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return err
	}
	if outPath != "-" {
		fmt.Printf("scalebench: %d gates x %d points x %d repeats, GOMAXPROCS %d\n",
			doc.Gates, doc.Points, doc.Repeats, doc.GOMAXPROCS)
		for _, curve := range doc.Families {
			fmt.Printf("  %s:\n", curve.Family)
			for _, pt := range curve.Points {
				fmt.Printf("    %2d workers: %.3g points/s (%.0f%% efficiency)\n",
					pt.Workers, pt.PointsPerSec, pt.Efficiency*100)
			}
		}
	}
	return nil
}
