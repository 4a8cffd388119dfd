package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"cntfet/internal/telemetry"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("5,10,50")
	if err != nil || len(got) != 3 || got[2] != 50 {
		t.Fatalf("parseInts: %v %v", got, err)
	}
	if _, err := parseInts("x"); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestRunSingleLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	old := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	err := run(context.Background(), []int{1}, 13, options{})
	w.Close()
	os.Stdout = old
	out := <-done
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "Table I") || !strings.Contains(out, "speedup") {
		t.Fatalf("output:\n%s", out)
	}
}

// TestRunSweepBenchJSON checks the before/after sweep benchmark: the
// document must carry both paths' timings and counter deltas, the
// batched path must do dramatically less quadrature work, and the two
// engines must agree on IDS.
func TestRunSweepBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	defer telemetry.Disable()
	out := t.TempDir() + "/BENCH_sweep.json"
	if err := runSweepBench(13, 1, 2, out, false, "", 0.15); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc sweepBenchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("not one JSON document: %v\n%s", err, raw)
	}
	if doc.Gates != 7 || doc.Points != 13 || doc.Repeats != 1 {
		t.Fatalf("grid metadata: %+v", doc)
	}
	wantPoints := int64(doc.Gates * doc.Points)
	for _, st := range []sweepPathStat{doc.Legacy, doc.Batched} {
		if st.Seconds <= 0 || st.PointsPerSec <= 0 {
			t.Fatalf("degenerate timing: %+v", st)
		}
		if st.Counters["sweep.points"] != wantPoints {
			t.Fatalf("sweep.points = %d, want %d", st.Counters["sweep.points"], wantPoints)
		}
	}
	if doc.Legacy.Counters["fettoy.integral_evals"] == 0 {
		t.Fatal("legacy path did no quadrature")
	}
	// The batched path serves the timed window from the table: at
	// least 10x fewer integrals (the acceptance bar) and table hits.
	if doc.IntegralEvalReduction < 10 {
		t.Fatalf("integral eval reduction %.1fx, want >= 10x", doc.IntegralEvalReduction)
	}
	if doc.Batched.Counters["fettoy.table.hits"] == 0 {
		t.Fatal("no table hits recorded")
	}
	if doc.TableNodes <= 0 || doc.TableBuildSeconds <= 0 {
		t.Fatalf("table build not reported: %+v", doc)
	}
	// Accuracy cross-check: the two engines agree to well under 0.1%.
	if doc.MaxRMSPercent >= 0.1 {
		t.Fatalf("paths disagree: max RMS %g%%", doc.MaxRMSPercent)
	}

	// The closed-form serving path: real timing, the full grid, zero
	// reference-model work (no Newton iterations, no quadrature), and
	// accuracy inside the paper's few-percent envelope.
	cf := doc.ClosedForm
	if cf.Seconds <= 0 || cf.PointsPerSec <= 0 || cf.Workers != 2 {
		t.Fatalf("degenerate closed-form timing: %+v", cf)
	}
	if cf.Counters["sweep.points"] != wantPoints {
		t.Fatalf("closed-form sweep.points = %d, want %d", cf.Counters["sweep.points"], wantPoints)
	}
	if cf.Counters["fettoy.newton_iters"] != 0 || cf.Counters["fettoy.integral_evals"] != 0 {
		t.Fatalf("closed-form path did reference work: %v", cf.Counters)
	}
	if cf.Counters["core.solves"] != wantPoints {
		t.Fatalf("core.solves = %d, want %d", cf.Counters["core.solves"], wantPoints)
	}
	// Worst-gate bound matching the repo's Model 1 envelope (10% per
	// gate — the subthreshold curves dominate; on-state gates sit at a
	// few percent, see core_test.go).
	if doc.ClosedFormMaxRMSPercent <= 0 || doc.ClosedFormMaxRMSPercent >= 10 {
		t.Fatalf("closed-form accuracy out of envelope: %g%%", doc.ClosedFormMaxRMSPercent)
	}
	if doc.GOMAXPROCS <= 0 || doc.Batched.PerWorkerPointsPerSec <= 0 {
		t.Fatalf("parallelism metadata missing: %+v", doc)
	}

	// Gating against a baseline deflated ×1e-6 must pass — the pass path
	// without a timing assertion, which a ~2 ms window cannot carry under
	// `go test -race ./...` — and a baseline inflated ×1e6 must fail.
	deflated := doc
	deflated.Batched.PointsPerSec *= 1e-6
	deflated.ClosedForm.PointsPerSec *= 1e-6
	if err := runSweepBench(13, 1, 2, t.TempDir()+"/gate.json", false, writeBaseline(t, deflated), 0.15); err != nil {
		t.Fatalf("gate failed against a deflated baseline: %v", err)
	}
	inflated := doc
	inflated.Batched.PointsPerSec *= 1e6
	if err := runSweepBench(13, 1, 2, t.TempDir()+"/gate2.json", false, writeBaseline(t, inflated), 0.15); err == nil {
		t.Fatal("gate passed against an impossible baseline")
	}
}

// writeBaseline writes doc as a gate baseline file and returns its path.
func writeBaseline(t *testing.T, doc sweepBenchDoc) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "baseline*.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

// TestRunMetricsJSON checks the acceptance shape of `cntbench -metrics`:
// one JSON document with a timing table and a counters block covering
// quadrature work, Newton iterations and piecewise region dispatch.
func TestRunMetricsJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	defer telemetry.Disable()
	old := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	err := run(context.Background(), []int{1}, 13, options{metrics: true})
	w.Close()
	os.Stdout = old
	out := <-done
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Table    []row            `json:"table"`
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("output is not one JSON document: %v\n%s", err, out)
	}
	if len(doc.Table) != 1 || doc.Table[0].Loops != 1 {
		t.Fatalf("table = %+v", doc.Table)
	}
	for _, key := range []string{
		"fettoy.quad_points", "fettoy.newton_iters", "core.solves",
	} {
		if doc.Counters[key] <= 0 {
			t.Fatalf("counter %s = %d, want > 0 (counters: %v)", key, doc.Counters[key], doc.Counters)
		}
	}
	dispatch := int64(0)
	for k, v := range doc.Counters {
		if strings.HasPrefix(k, "core.dispatch.") {
			dispatch += v
		}
	}
	if dispatch <= 0 {
		t.Fatalf("no region-dispatch counts in %v", doc.Counters)
	}
}

// TestRunScaleBenchJSON checks the BENCH_scale.json schema: one curve
// per family over the requested worker ladder, sane efficiency
// normalisation, oversubscribed points marked, and the expected
// per-family work fingerprints.
func TestRunScaleBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("timing run")
	}
	defer telemetry.Disable()
	out := t.TempDir() + "/BENCH_scale.json"
	over := runtime.GOMAXPROCS(0) + 1 // the ladder's second point is always oversubscribed
	if err := runScaleBench(13, 1, fmt.Sprintf("1,%d", over), out); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var doc scaleBenchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("not one JSON document: %v\n%s", err, raw)
	}
	if doc.Gates != 7 || doc.Points != 13 || doc.GOMAXPROCS <= 0 {
		t.Fatalf("grid metadata: %+v", doc)
	}
	if len(doc.WorkerCounts) != 2 || doc.WorkerCounts[0] != 1 || doc.WorkerCounts[1] != over {
		t.Fatalf("worker ladder: %v", doc.WorkerCounts)
	}
	if len(doc.Families) != 2 || doc.Families[0].Family != "reference" || doc.Families[1].Family != "model1" {
		t.Fatalf("families: %+v", doc.Families)
	}
	wantPoints := int64(doc.Gates * doc.Points)
	for _, curve := range doc.Families {
		if len(curve.Points) != 2 {
			t.Fatalf("%s: %d points, want 2", curve.Family, len(curve.Points))
		}
		for i, pt := range curve.Points {
			if pt.Seconds <= 0 || pt.PointsPerSec <= 0 {
				t.Fatalf("%s[%d]: degenerate timing: %+v", curve.Family, i, pt)
			}
			if pt.Counters["sweep.points"] != wantPoints {
				t.Fatalf("%s[%d]: sweep.points = %d, want %d",
					curve.Family, i, pt.Counters["sweep.points"], wantPoints)
			}
			if pt.Efficiency <= 0 {
				t.Fatalf("%s[%d]: efficiency not normalised: %+v", curve.Family, i, pt)
			}
			if want := pt.Workers > doc.GOMAXPROCS; pt.Oversubscribed != want {
				t.Fatalf("%s[%d]: oversubscribed = %v at %d workers, GOMAXPROCS %d", curve.Family, i, pt.Oversubscribed, pt.Workers, doc.GOMAXPROCS)
			}
		}
		if e := curve.Points[0].Efficiency; e != 1 {
			t.Fatalf("%s: single-worker efficiency = %g, want 1", curve.Family, e)
		}
	}
	// Family fingerprints: the reference serves from its table, the
	// closed-form family does no reference work at all.
	refPt := doc.Families[0].Points[0]
	if refPt.Counters["fettoy.table.hits"] == 0 {
		t.Fatalf("reference family not table-backed: %v", refPt.Counters)
	}
	m1Pt := doc.Families[1].Points[0]
	if m1Pt.Counters["fettoy.newton_iters"] != 0 || m1Pt.Counters["fettoy.integral_evals"] != 0 {
		t.Fatalf("model1 family did reference work: %v", m1Pt.Counters)
	}
	if m1Pt.Counters["core.solves"] != wantPoints {
		t.Fatalf("model1 core.solves = %d, want %d", m1Pt.Counters["core.solves"], wantPoints)
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)-th check on, so a run stops at a known point of its loop.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestTraceWrittenOnCancel is the trace-on-failure regression: a Table
// I run canceled after two reference curves (as SIGINT cancels it, exit
// 130) still writes the -trace file, holding exactly those curves'
// solves.
func TestTraceWrittenOnCancel(t *testing.T) {
	const points = 13
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(2)
	err := run(ctx, []int{1}, points, options{traceFile: path})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run returned %v, want context.Canceled", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("canceled run left no trace file: %v", err)
	}
	defer f.Close()
	solves := 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var ev struct{ Kind string }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("trace line is not JSON: %q", sc.Text())
		}
		if ev.Kind == "fettoy.solve" {
			solves++
		}
	}
	if solves != 2*points {
		t.Fatalf("trace holds %d reference solves, want the %d of the two curves run", solves, 2*points)
	}
}
