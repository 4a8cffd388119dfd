// Command cntbench reproduces Table I of the paper: average CPU time
// to compute the standard family of drain-current characteristics
// (seven gate voltages, VDS swept 0..0.6 V) with the FETToy-style
// reference model versus the piecewise Models 1 and 2, invoked in
// loops of 5, 10, 50 and 100 repetitions.
//
// Absolute times are hardware-dependent (the paper used MATLAB on a
// Pentium IV); the reproducible quantities are the *ratios* — the
// paper reports Model 1 ≈ 3400× and Model 2 ≈ 1100× faster — and the
// linear scaling of time with loop count.
//
// With -metrics the output becomes one JSON document with a "table"
// array and a "counters" block (quadrature evaluations, Newton
// iterations, piecewise region-dispatch counts, ...), so benchmark
// trajectories can correlate speedups with solver-work reduction.
// -trace writes the reference model's Newton residual trajectories as
// JSON lines.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cntfet"
	"cntfet/internal/report"
	"cntfet/internal/sweep"
	"cntfet/internal/telemetry"
)

type options struct {
	metrics   bool
	traceFile string
}

func main() {
	loops := flag.String("loops", "5,10,50,100", "comma-separated loop counts")
	points := flag.Int("points", 61, "VDS points per curve")
	metrics := flag.Bool("metrics", false, "emit JSON with timing table and solver-work counters")
	traceFile := flag.String("trace", "", "write reference-solve event log (JSON lines) to this file")
	sweepBench := flag.Bool("sweepbench", false, "run the legacy/batched/closed-form sweep engine comparison instead of Table I")
	out := flag.String("out", "BENCH_sweep.json", "sweepbench/scalebench: output file (- for stdout)")
	repeats := flag.Int("repeats", 5, "sweepbench/scalebench: timed repetitions per path")
	workers := flag.Int("workers", 0, "sweepbench: sweep workers (0 = GOMAXPROCS)")
	assertFaster := flag.Bool("assert-faster", false, "sweepbench: exit non-zero if the batched path is slower")
	gate := flag.String("gate", "", "sweepbench: baseline BENCH_sweep.json to gate points/sec against (empty = no gate)")
	gateThreshold := flag.Float64("gate-threshold", 0.15, "sweepbench: allowed fractional points/sec regression vs the -gate baseline")
	scaleBench := flag.Bool("scalebench", false, "run the 1->N worker scaling curve for both families instead of Table I")
	scaleWorkers := flag.String("scale-workers", "", "scalebench: comma-separated worker counts (empty = 1..2*GOMAXPROCS powers of two)")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *sweepBench {
		if err := runSweepBench(*points, *repeats, *workers, *out, *assertFaster, *gate, *gateThreshold); err != nil {
			fmt.Fprintln(os.Stderr, "cntbench:", err)
			os.Exit(1)
		}
		return
	}
	if *scaleBench {
		outPath := *out
		if outPath == "BENCH_sweep.json" {
			outPath = "BENCH_scale.json" // scalebench's own default artifact
		}
		if err := runScaleBench(*points, *repeats, *scaleWorkers, outPath); err != nil {
			fmt.Fprintln(os.Stderr, "cntbench:", err)
			os.Exit(1)
		}
		return
	}
	counts, err := parseInts(*loops)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cntbench:", err)
		os.Exit(1)
	}
	if err := run(ctx, counts, *points, options{metrics: *metrics, traceFile: *traceFile}); err != nil {
		fmt.Fprintln(os.Stderr, "cntbench:", err)
		if errors.Is(err, context.Canceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

func parseInts(s string) ([]int, error) {
	var out []int
	var v int
	for len(s) > 0 {
		n, err := fmt.Sscanf(s, "%d", &v)
		if n != 1 || err != nil {
			return nil, fmt.Errorf("bad loop list %q", s)
		}
		out = append(out, v)
		for len(s) > 0 && s[0] != ',' {
			s = s[1:]
		}
		if len(s) > 0 {
			s = s[1:]
		}
	}
	return out, nil
}

// row is one loop-count measurement, JSON-ready for -metrics output.
type row struct {
	Loops      int     `json:"loops"`
	RefSeconds float64 `json:"ref_seconds"`
	M1Seconds  float64 `json:"m1_seconds"`
	M2Seconds  float64 `json:"m2_seconds"`
	SpeedupM1  float64 `json:"speedup_m1"`
	SpeedupM2  float64 `json:"speedup_m2"`
}

func run(ctx context.Context, counts []int, points int, opt options) (err error) {
	if opt.metrics {
		telemetry.Enable()
	}
	dev := cntfet.DefaultDevice()
	ref, err := cntfet.NewReference(dev)
	if err != nil {
		return err
	}
	if opt.traceFile != "" {
		telemetry.Enable()
		tr := telemetry.NewTracer(1 << 16)
		tr.SetEnabled(true)
		ref.SetTrace(tr)
		// The file is written on every exit path: a failed or
		// interrupted run keeps the events that explain it.
		defer func() { err = errors.Join(err, tr.WriteFile(opt.traceFile, os.Stderr)) }()
	}
	m1, err := cntfet.FitFrom(ref, cntfet.Model1Spec(), cntfet.FitOptions{})
	if err != nil {
		return err
	}
	m2, err := cntfet.FitFrom(ref, cntfet.Model2Spec(), cntfet.FitOptions{})
	if err != nil {
		return err
	}
	vgs := sweep.PaperGates()
	vds := make([]float64, points)
	for i := range vds {
		vds[i] = 0.6 * float64(i) / float64(points-1)
	}

	// The paper's Table I protocol: n plain evaluations of the family,
	// one independent solve per bias point (sweep.Trace per gate, no
	// batching, warm starts or workers), timed as a whole. The context
	// is checked between curves.
	timeLoops := func(m cntfet.Transistor, n int) (time.Duration, error) {
		start := time.Now()
		for i := 0; i < n; i++ {
			for _, vg := range vgs {
				if err := context.Cause(ctx); err != nil {
					return 0, fmt.Errorf("table I: %w", err)
				}
				if _, err := sweep.Trace(m, vg, vds); err != nil {
					return 0, err
				}
			}
		}
		return time.Since(start), nil
	}

	var rows []row
	for _, n := range counts {
		tRef, err := timeLoops(ref, n)
		if err != nil {
			return err
		}
		t1, err := timeLoops(m1, n)
		if err != nil {
			return err
		}
		t2, err := timeLoops(m2, n)
		if err != nil {
			return err
		}
		rows = append(rows, row{
			Loops:      n,
			RefSeconds: tRef.Seconds(),
			M1Seconds:  t1.Seconds(),
			M2Seconds:  t2.Seconds(),
			SpeedupM1:  tRef.Seconds() / t1.Seconds(),
			SpeedupM2:  tRef.Seconds() / t2.Seconds(),
		})
	}

	if opt.metrics {
		snap := telemetry.Default().Snapshot()
		doc := struct {
			Table []row `json:"table"`
			telemetry.Snapshot
		}{Table: rows, Snapshot: snap}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(doc)
	}

	tb := report.NewTable(
		"Table I: average CPU time, family of IDS characteristics (7 gates x 61 VDS points)",
		"Loops", "FETToy(ref)", "Model 1", "Model 2", "speedup M1", "speedup M2")
	for _, r := range rows {
		tb.AddRow(
			fmt.Sprintf("%d", r.Loops),
			fmt.Sprintf("%.4gs", r.RefSeconds),
			fmt.Sprintf("%.4gs", r.M1Seconds),
			fmt.Sprintf("%.4gs", r.M2Seconds),
			fmt.Sprintf("%.0fx", r.SpeedupM1),
			fmt.Sprintf("%.0fx", r.SpeedupM2),
		)
	}
	tb.Render(os.Stdout)
	fmt.Println("\npaper reference: FETToy 64.4s..1287s; Model 1 ~3400x faster; Model 2 ~1100x faster")
	return nil
}
