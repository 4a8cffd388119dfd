package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cntfet/internal/core"
	"cntfet/internal/device"
	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// TestShortRunReportsEveryMetric runs all four workloads in-process as
// a -short smoke run and checks the result file names every metric of
// BENCHMARK.json with its unit, with no failed request. It asserts no
// timing.
func TestShortRunReportsEveryMetric(t *testing.T) {
	bf, err := loadBenchmark()
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "result.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-short", "-out", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	l, err := readLedger(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(l.Workloads) != len(bf.Workloads) {
		t.Fatalf("%d workloads reported, BENCHMARK.json names %d", len(l.Workloads), len(bf.Workloads))
	}
	for i, rep := range l.Workloads {
		if rep.Name != bf.Workloads[i].Name {
			t.Errorf("workload %d is %q, BENCHMARK.json says %q", i, rep.Name, bf.Workloads[i].Name)
		}
		if !rep.Correct || rep.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d (%s)", rep.Name, rep.Correct, rep.Failed, rep.FirstFailure)
		}
		if e := rep.EndToEnd["error_rate"].Median; e != 0 {
			t.Errorf("%s: error_rate %g", rep.Name, e)
		}
		for _, m := range bf.EndToEnd {
			s, ok := rep.EndToEnd[m.Name]
			if !ok || s.Unit != m.Unit || !(s.Median > 0) {
				t.Errorf("%s: end-to-end %s = %+v, want unit %s and a positive value", rep.Name, m.Name, s, m.Unit)
			}
		}
		for _, m := range bf.PerLayer {
			lv, ok := rep.PerLayer[m.Name]
			if !ok || lv.Unit != m.Unit || lv.Value == nil {
				t.Errorf("%s: per-layer %s = %+v, want unit %s and a value", rep.Name, m.Name, lv, m.Unit)
			}
		}
		// The one-line result carries exactly BENCHMARK.json's metrics.
		for _, perLayer := range []bool{false, true} {
			want := map[string]string{}
			for _, m := range bf.EndToEnd {
				if !perLayer {
					want[m.Name] = m.Unit
				}
			}
			for _, m := range bf.PerLayer {
				if perLayer {
					want[m.Name] = m.Unit
				}
			}
			line, err := resultLine(rep, perLayer)
			if err != nil {
				t.Fatalf("%s: %v", rep.Name, err)
			}
			var res struct {
				Correct   bool
				Attempted int64
				Metrics   map[string]struct{ Unit string }
			}
			if err := json.Unmarshal(line, &res); err != nil {
				t.Fatal(err)
			}
			got := map[string]string{}
			for k, v := range res.Metrics {
				got[k] = v.Unit
			}
			if !reflect.DeepEqual(got, want) || !res.Correct || res.Attempted < 1 {
				t.Errorf("%s result line (per-layer %v): %s", rep.Name, perLayer, line)
			}
		}
	}
}

// TestWrongOracleCountsAsFailure poisons one remembered oracle answer
// and checks the repetition counts the mismatch as a failure.
func TestWrongOracleCountsAsFailure(t *testing.T) {
	telemetry.Enable()
	ctx := context.Background()
	wl, err := workloadNamed("sweep-buffered")
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle()
	warm := wl.warm(1)
	if err := o.remember(ctx, warm); err != nil {
		t.Fatal(err)
	}
	res := o.memo[string(warm[4])]
	ids := res.Family[3].IDS
	ids[10] = math.Nextafter(ids[10], math.Inf(1))

	sp, err := newSpeedProbe(1)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.close()
	rep, err := runRep(ctx, wl, o, repConfig{clients: 1, warm: 10 * time.Millisecond, measured: 100 * time.Millisecond, seed: 1, probe: sp})
	if err != nil {
		t.Fatal(err)
	}
	if rep.tally.failed == 0 || !strings.Contains(rep.tally.first, "differs from the oracle") {
		t.Fatalf("poisoned oracle: failed=%d first=%q, want a counted mismatch", rep.tally.failed, rep.tally.first)
	}
	r := (&workloadRun{wl: wl, reps: []repResult{rep}}).report()
	if r.Correct {
		t.Error("report marks a run with an oracle mismatch correct")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []benchSpan{
		{Span: 1, Start: 0, End: 100},
		// Overlapping children cover [10, 60).
		{Span: 2, Parent: 1, Start: 10, End: 40},
		{Span: 3, Parent: 1, Start: 30, End: 60},
		// A child reaching past its parent counts only inside it, and one
		// wholly outside counts not at all.
		{Span: 4, Parent: 1, Start: 90, End: 150},
		{Span: 5, Parent: 1, Start: 200, End: 300},
		// A grandchild is its child's business, not the root's.
		{Span: 6, Parent: 2, Start: 15, End: 25},
	}
	got := selfTimes(spans)
	want := map[uint64]int64{1: 100 - 50 - 10, 2: 30 - 10, 3: 30, 4: 60, 5: 100, 6: 10}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

// TestQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(values, n=4).
func TestQuartiles(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 3, 2, 4}, [3]float64{1.5, 3, 4.5}},
		{[]float64{7}, [3]float64{7, 7, 7}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if [3]float64{q1, q2, q3} != c.want {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.in, q1, q2, q3, c.want)
		}
	}
}

// TestTracedModelsKeepCapabilities checks the kernel wrappers expose
// exactly the optional interfaces of the models they wrap, so the
// engine and scheduler take the same paths through them.
func TestTracedModelsKeepCapabilities(t *testing.T) {
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	fit, err := core.Fit(ref, core.Model1Spec(), core.FitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	caps := func(m device.Solver) [5]bool {
		_, d := m.(device.Device)
		_, w := m.(device.WarmStarter)
		_, b := m.(device.BatchSolver)
		_, g := m.(device.GradientSolver)
		_, c := m.(device.ContextBuilder)
		return [5]bool{d, w, b, g, c}
	}
	for _, m := range []device.Solver{ref, fit} {
		if got, want := caps(traced(m, newSpanLog(), 1, 0)), caps(m); got != want {
			t.Errorf("%T: wrapped capabilities %v, bare %v", m, got, want)
		}
	}
}

func TestAgree(t *testing.T) {
	bf := benchmarkFile{EndToEnd: []benchmarkMetric{{Name: "throughput_rps", Unit: "req/s", Bound: 0.1}}}
	result := func(rps float64) ledger {
		return ledger{Workloads: []workloadReport{{
			Name: "iv-point", Correct: true,
			EndToEnd: map[string]stat{
				"throughput_rps": newStat("req/s", []float64{rps}),
				"error_rate":     newStat("ratio", []float64{0}),
			},
		}}}
	}
	var out bytes.Buffer
	if ok, err := agree(bf, result(1000), result(1090), &out); err != nil || !ok {
		t.Errorf("9%% apart with a 10%% bound: ok=%v err=%v\n%s", ok, err, out.String())
	}
	if ok, err := agree(bf, result(1000), result(880), &out); err != nil || ok {
		t.Errorf("12%% apart with a 10%% bound: ok=%v err=%v\n%s", ok, err, out.String())
	}
}
