package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"cntfet"
	"cntfet/internal/sweep"
	"cntfet/internal/telemetry"
)

// The serving-path sweep benchmark: the same family grid driven
// through the legacy scheduler (point-per-task, cold solves, direct
// quadrature), the batched reference engine (chunked row scheduling,
// tabulated state density, warm-start continuation), and the
// closed-form piecewise serving path (Model 1 through the same chunked
// scheduler, zero-alloc row kernels, no Newton iterations at all) —
// with the telemetry counter deltas that explain each step. Output is
// one machine-readable JSON document (BENCH_sweep.json by default)
// that doubles as the perf-regression baseline for make benchgate.

// sweepPathStat is one timed serving path. Workers and
// PerWorkerPointsPerSec pin down the parallelism the numbers were
// measured at, so checked-in snapshots are unambiguous.
type sweepPathStat struct {
	Seconds      float64 `json:"seconds"`
	PointsPerSec float64 `json:"points_per_sec"`
	// Workers is the scheduler's worker count for this path (the legacy
	// and chunked schedulers both honour it).
	Workers int `json:"workers"`
	// PerWorkerPointsPerSec is PointsPerSec / Workers — the per-core
	// figure to compare across machines with different widths.
	PerWorkerPointsPerSec float64          `json:"per_worker_points_per_sec"`
	Counters              map[string]int64 `json:"counters"`
}

// sweepBenchDoc is the BENCH_sweep.json schema.
type sweepBenchDoc struct {
	Gates   int `json:"gates"`
	Points  int `json:"points"`
	Repeats int `json:"repeats"`
	Workers int `json:"workers"`
	// GOMAXPROCS records the Go scheduler width of the measuring
	// machine; points/sec numbers are meaningless without it.
	GOMAXPROCS int `json:"gomaxprocs"`

	Legacy  sweepPathStat `json:"legacy"`
	Batched sweepPathStat `json:"batched"`
	// ClosedForm is the piecewise Model 1 through the same chunked
	// parallel scheduler — the default serving path.
	ClosedForm sweepPathStat `json:"closed_form"`

	// Speedup is legacy seconds over batched seconds for the same grid;
	// ClosedFormSpeedup is legacy seconds over closed-form seconds.
	Speedup           float64 `json:"speedup"`
	ClosedFormSpeedup float64 `json:"closed_form_speedup"`
	// IntegralEvalReduction is the legacy/batched ratio of
	// fettoy.integral_evals in the timed window.
	IntegralEvalReduction float64 `json:"integral_eval_reduction"`
	// MaxRMSPercent is the worst per-gate RMS disagreement between the
	// legacy and batched reference families (the engine cross-check);
	// ClosedFormMaxRMSPercent is the worst disagreement between Model 1
	// and the reference family (the paper's accuracy envelope).
	MaxRMSPercent           float64 `json:"max_rms_percent"`
	ClosedFormMaxRMSPercent float64 `json:"closed_form_max_rms_percent"`

	// TableBuildSeconds is the one-time tabulation cost, kept outside
	// the timed windows; TableNodes is the adaptive grid size.
	TableBuildSeconds float64 `json:"table_build_seconds"`
	TableNodes        int64   `json:"table_nodes"`

	// GateSkippedPaths and GateSkippedCount record serving paths the
	// regression gate could not check because the baseline predates
	// them (no-silent-caps: a gate that skipped something must say so
	// in its artifact). Empty/zero on ungated runs and on baselines
	// covering every path.
	GateSkippedPaths []string `json:"gate_skipped_paths,omitempty"`
	GateSkippedCount int      `json:"gate_skipped_count,omitempty"`
}

// sweepCounterKeys are the registry deltas quoted per path: the
// reference model's work counters plus the closed-form dispatch
// counters, so the closed-form path's zero Newton/quadrature work is
// visible in the same document.
var sweepCounterKeys = []string{
	telemetry.KeyFettoyIntegralEvals,
	telemetry.KeyFettoyQuadPoints,
	telemetry.KeyFettoyNewtonIters,
	telemetry.KeyFettoySolves,
	telemetry.KeyFettoyTableHits,
	telemetry.KeyFettoyTableMisses,
	telemetry.KeyCoreSolves,
	telemetry.KeyCoreDispatchLinear,
	telemetry.KeyCoreDispatchQuadratic,
	telemetry.KeyCoreDispatchCardano,
	telemetry.KeyCoreDispatchTrig,
	telemetry.KeyCoreFallbackGeneric,
	telemetry.KeySweepPoints,
	telemetry.KeySweepErrors,
}

// sweepCounters projects a registry delta onto sweepCounterKeys,
// zeros included, so every benchmark document has the same schema.
func sweepCounters(delta map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(sweepCounterKeys))
	for _, k := range sweepCounterKeys {
		d[k] = delta[k]
	}
	return d
}

// runSweepBench executes the comparison and writes the JSON document to
// outPath ("-" for stdout). assertFaster turns a batched-path
// regression into a non-zero exit, for make bench. A non-empty
// gatePath additionally compares the fresh numbers against the
// baseline document at that path and fails on a points/sec regression
// beyond gateThreshold (see checkGate); the baseline is read before
// outPath is created, so gating against the file being rewritten works.
func runSweepBench(points, repeats, workers int, outPath string, assertFaster bool, gatePath string, gateThreshold float64) error {
	if points < 2 {
		return fmt.Errorf("sweepbench: need at least 2 VDS points, got %d", points)
	}
	if repeats < 1 {
		repeats = 1
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var baseline *sweepBenchDoc
	if gatePath != "" {
		b, err := loadBenchDoc(gatePath)
		if err != nil {
			return fmt.Errorf("sweepbench: gate baseline: %w", err)
		}
		baseline = b
	}
	telemetry.Enable()
	defer telemetry.Disable()
	reg := telemetry.Default()

	dev := cntfet.DefaultDevice()
	refLegacy, err := cntfet.NewReference(dev)
	if err != nil {
		return err
	}
	refBatched, err := cntfet.NewReference(dev)
	if err != nil {
		return err
	}
	tbl := refBatched.EnableTable(cntfet.TableOptions{})
	m1, err := cntfet.FitFrom(refBatched, cntfet.Model1Spec(), cntfet.FitOptions{})
	if err != nil {
		return err
	}

	vgs := sweep.PaperGates()
	vds := make([]float64, points)
	for i := range vds {
		vds[i] = 0.6 * float64(i) / float64(points-1)
	}

	// One-time table build, kept out of the timed window and reported
	// separately: steady-state throughput is the quantity of interest,
	// and the build amortises over every later sweep of the device.
	buildStart := time.Now()
	tbl.Build()
	buildSeconds := time.Since(buildStart).Seconds()

	// Untimed warm-up of all paths; the results double as the accuracy
	// cross-checks (engine-vs-engine and model-vs-reference).
	famLegacy, err := sweep.FamilyParallelLegacy(refLegacy, vgs, vds, workers)
	if err != nil {
		return err
	}
	famBatched, err := sweep.FamilyParallel(context.Background(), refBatched, vgs, vds, workers)
	if err != nil {
		return err
	}
	famClosed, err := sweep.FamilyParallel(context.Background(), m1, vgs, vds, workers)
	if err != nil {
		return err
	}
	maxRMS, err := maxFamilyRMS(famBatched, famLegacy)
	if err != nil {
		return err
	}
	closedRMS, err := maxFamilyRMS(famClosed, famBatched)
	if err != nil {
		return err
	}

	timePath := func(run func() error) (sweepPathStat, error) {
		mark := reg.CounterMark(nil)
		start := time.Now()
		for i := 0; i < repeats; i++ {
			if err := run(); err != nil {
				return sweepPathStat{}, err
			}
		}
		secs := time.Since(start).Seconds()
		st := sweepPathStat{
			Seconds:  secs,
			Workers:  workers,
			Counters: sweepCounters(reg.CounterDelta(mark)),
		}
		if secs > 0 {
			st.PointsPerSec = float64(repeats*len(vgs)*len(vds)) / secs
			st.PerWorkerPointsPerSec = st.PointsPerSec / float64(workers)
		}
		return st, nil
	}

	doc := sweepBenchDoc{
		Gates:                   len(vgs),
		Points:                  len(vds),
		Repeats:                 repeats,
		Workers:                 workers,
		GOMAXPROCS:              runtime.GOMAXPROCS(0),
		MaxRMSPercent:           maxRMS,
		ClosedFormMaxRMSPercent: closedRMS,
		TableBuildSeconds:       buildSeconds,
		TableNodes:              int64(tbl.Nodes()),
	}
	doc.Legacy, err = timePath(func() error {
		_, err := sweep.FamilyParallelLegacy(refLegacy, vgs, vds, workers)
		return err
	})
	if err != nil {
		return err
	}
	doc.Batched, err = timePath(func() error {
		_, err := sweep.FamilyParallel(context.Background(), refBatched, vgs, vds, workers)
		return err
	})
	if err != nil {
		return err
	}
	doc.ClosedForm, err = timePath(func() error {
		_, err := sweep.FamilyParallel(context.Background(), m1, vgs, vds, workers)
		return err
	})
	if err != nil {
		return err
	}
	if doc.Batched.Seconds > 0 {
		doc.Speedup = doc.Legacy.Seconds / doc.Batched.Seconds
	}
	if doc.ClosedForm.Seconds > 0 {
		doc.ClosedFormSpeedup = doc.Legacy.Seconds / doc.ClosedForm.Seconds
	}
	legacyEvals := doc.Legacy.Counters[telemetry.KeyFettoyIntegralEvals]
	batchedEvals := doc.Batched.Counters[telemetry.KeyFettoyIntegralEvals]
	if batchedEvals < 1 {
		batchedEvals = 1
	}
	doc.IntegralEvalReduction = float64(legacyEvals) / float64(batchedEvals)

	// Gate before writing the document, so the skipped-path record (and
	// a failing run's numbers) land in BENCH_gate.json either way.
	var gateErr error
	if baseline != nil {
		doc.GateSkippedPaths, gateErr = checkGate(doc, *baseline, gateThreshold)
		doc.GateSkippedCount = len(doc.GateSkippedPaths)
		for _, name := range doc.GateSkippedPaths {
			fmt.Printf("benchgate: %s path absent from baseline, not gated\n", name)
		}
	}

	var w io.Writer = os.Stdout
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return fmt.Errorf("sweepbench: %w", err)
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
		fmt.Printf("sweepbench: %d gates x %d points x %d repeats, %d workers (GOMAXPROCS %d)\n",
			doc.Gates, doc.Points, doc.Repeats, doc.Workers, doc.GOMAXPROCS)
		fmt.Printf("  legacy       %.4gs (%.3g points/s)\n", doc.Legacy.Seconds, doc.Legacy.PointsPerSec)
		fmt.Printf("  batched      %.4gs (%.3g points/s), table: %d nodes in %.4gs\n",
			doc.Batched.Seconds, doc.Batched.PointsPerSec, doc.TableNodes, doc.TableBuildSeconds)
		fmt.Printf("  closed-form  %.4gs (%.3g points/s), newton iters %d, integral evals %d\n",
			doc.ClosedForm.Seconds, doc.ClosedForm.PointsPerSec,
			doc.ClosedForm.Counters[telemetry.KeyFettoyNewtonIters],
			doc.ClosedForm.Counters[telemetry.KeyFettoyIntegralEvals])
		fmt.Printf("  speedup %.1fx batched / %.1fx closed-form, integral evals %d -> %d (%.0fx fewer)\n",
			doc.Speedup, doc.ClosedFormSpeedup,
			legacyEvals, doc.Batched.Counters[telemetry.KeyFettoyIntegralEvals],
			doc.IntegralEvalReduction)
		fmt.Printf("  max RMS %.4g%% (engines), %.4g%% (model1 vs reference)\n",
			doc.MaxRMSPercent, doc.ClosedFormMaxRMSPercent)
	}
	if assertFaster && doc.Speedup < 1 {
		return fmt.Errorf("sweepbench: batched path slower than legacy (%.2fx)", doc.Speedup)
	}
	if baseline != nil {
		if gateErr != nil {
			return gateErr
		}
		fmt.Printf("benchgate: within %.0f%% of baseline (batched %.3g vs %.3g, closed-form %.3g vs %.3g points/s, %d paths skipped)\n",
			gateThreshold*100, doc.Batched.PointsPerSec, baseline.Batched.PointsPerSec,
			doc.ClosedForm.PointsPerSec, baseline.ClosedForm.PointsPerSec, doc.GateSkippedCount)
	}
	return nil
}

// maxFamilyRMS returns the worst per-gate RMS disagreement between two
// families, in percent.
func maxFamilyRMS(got, want []sweep.Curve) (float64, error) {
	errsRMS, err := sweep.CompareFamilies(got, want)
	if err != nil {
		return 0, err
	}
	max := 0.0
	for _, e := range errsRMS {
		if e > max {
			max = e
		}
	}
	return max, nil
}

// loadBenchDoc reads a checked-in BENCH_sweep.json baseline. The two
// failure modes get distinct messages because they demand different
// fixes: a missing baseline means nobody has run the benchmark yet
// (create it), while an unparseable one means the file rotted — a bad
// merge, a truncated artifact download — and gating silently against
// garbage would be worse than failing (refresh it).
func loadBenchDoc(path string) (*sweepBenchDoc, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, fmt.Errorf("baseline %s not found — run `make bench` to create it: %w", path, err)
		}
		return nil, err
	}
	var doc sweepBenchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("baseline %s exists but is unparseable — refresh it with `make bench` (or restore it from a good artifact): %w", path, err)
	}
	return &doc, nil
}

// checkGate fails when a serving path's throughput regresses more than
// threshold (a fraction, e.g. 0.15 for 15%) below the baseline's.
// Paths absent from the baseline (zero points/sec — e.g. a baseline
// from before the closed-form path existed) are skipped rather than
// failed, so the gate stays usable across schema growth — but never
// silently: every skipped path is returned by name, and the caller
// logs them and records the list in BENCH_gate.json. The legacy path
// is deliberately not gated: it exists as the "before" yardstick, not
// as a serving path.
func checkGate(cur, base sweepBenchDoc, threshold float64) (skipped []string, err error) {
	if threshold <= 0 {
		threshold = 0.15
	}
	type gated struct {
		name      string
		cur, base float64
	}
	for _, g := range []gated{
		{"batched", cur.Batched.PointsPerSec, base.Batched.PointsPerSec},
		{"closed_form", cur.ClosedForm.PointsPerSec, base.ClosedForm.PointsPerSec},
	} {
		if g.base <= 0 {
			skipped = append(skipped, g.name)
			continue
		}
		floor := g.base * (1 - threshold)
		if g.cur < floor {
			return skipped, fmt.Errorf("benchgate: %s path regressed: %.4g points/s vs baseline %.4g (floor %.4g at %.0f%% threshold)",
				g.name, g.cur, g.base, floor, threshold*100)
		}
	}
	return skipped, nil
}
