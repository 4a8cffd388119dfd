package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cntfet/internal/core"
	"cntfet/internal/fettoy"
	"cntfet/internal/rootfind"
	"cntfet/internal/sweep"
	"cntfet/internal/telemetry"
	"cntfet/internal/units"
)

// buildPair returns the reference model and the fitted Model 2 for a
// device, failing the test on construction errors.
func buildPair(t *testing.T, dev fettoy.Device) (*fettoy.Model, *core.Model) {
	t.Helper()
	ref, err := fettoy.New(dev)
	if err != nil {
		t.Fatal(err)
	}
	fast, err := core.Model2(ref)
	if err != nil {
		t.Fatal(err)
	}
	return ref, fast
}

func sameFamilies(t *testing.T, label string, got, want []sweep.Curve) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d curves, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].VG != want[i].VG {
			t.Fatalf("%s: curve %d at VG=%g, want %g", label, i, got[i].VG, want[i].VG)
		}
		for j := range want[i].IDS {
			if got[i].IDS[j] != want[i].IDS[j] {
				t.Fatalf("%s: curve %d point %d: %g != %g (diff %g)",
					label, i, j, got[i].IDS[j], want[i].IDS[j],
					got[i].IDS[j]-want[i].IDS[j])
			}
		}
	}
}

// TestFamilyGoldenEquivalence is the engine/direct equivalence gate:
// for both model families and the three table temperatures, a
// FamilySweep job must reproduce the direct sweep paths bit for bit.
func TestFamilyGoldenEquivalence(t *testing.T) {
	vgs := []float64{0.3, 0.45, 0.6}
	vds := units.Linspace(0, 0.6, 13)
	for _, temp := range []float64{150, 300, 450} {
		dev := fettoy.Default()
		dev.T = temp
		ref, fast := buildPair(t, dev)
		for _, tc := range []struct {
			name  string
			model interface {
				IDS(fettoy.Bias) (float64, error)
			}
		}{{"reference", ref}, {"piecewise", fast}} {
			label := fmt.Sprintf("T=%g/%s", temp, tc.name)
			direct, err := sweep.FamilyBatch(context.Background(), tc.model, vgs, vds)
			if err != nil {
				t.Fatalf("%s: direct: %v", label, err)
			}
			res, err := Run(context.Background(), Request{
				Kind:     FamilySweep,
				Model:    tc.model,
				Gates:    vgs,
				Drains:   vds,
				Strategy: Batch,
			})
			if err != nil {
				t.Fatalf("%s: engine: %v", label, err)
			}
			sameFamilies(t, label+"/batch", res.Family, direct)

			directSerial, err := sweep.Family(context.Background(), tc.model, vgs, vds)
			if err != nil {
				t.Fatalf("%s: direct serial: %v", label, err)
			}
			resSerial, err := Run(context.Background(), Request{
				Kind:     FamilySweep,
				Model:    tc.model,
				Gates:    vgs,
				Drains:   vds,
				Strategy: Serial,
			})
			if err != nil {
				t.Fatalf("%s: engine serial: %v", label, err)
			}
			sameFamilies(t, label+"/serial", resSerial.Family, directSerial)
		}
	}
}

// TestIVPointGoldenEquivalence checks the single-point job against the
// models' direct Solve/IDS paths.
func TestIVPointGoldenEquivalence(t *testing.T) {
	ref, fast := buildPair(t, fettoy.Default())
	bias := fettoy.Bias{VG: 0.5, VD: 0.4}
	for _, tc := range []struct {
		name  string
		model interface {
			IDS(fettoy.Bias) (float64, error)
			Solve(fettoy.Bias) (fettoy.OperatingPoint, error)
		}
	}{{"reference", ref}, {"piecewise", fast}} {
		op, err := tc.model.Solve(bias)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(context.Background(), Request{Kind: IVPoint, Model: tc.model, Bias: bias})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.IDS != op.IDS || res.OP.IDS != op.IDS || res.OP.VSC != op.VSC {
			t.Fatalf("%s: engine OP %+v != direct %+v", tc.name, res.OP, op)
		}
	}
}

// TestRMSCompareGoldenEquivalence checks the compare job against the
// direct sweep + CompareFamilies composition.
func TestRMSCompareGoldenEquivalence(t *testing.T) {
	ref, fast := buildPair(t, fettoy.Default())
	vgs := []float64{0.4, 0.6}
	vds := units.Linspace(0, 0.6, 9)
	famRef, err := sweep.FamilyBatch(context.Background(), ref, vgs, vds)
	if err != nil {
		t.Fatal(err)
	}
	famFast, err := sweep.FamilyBatch(context.Background(), fast, vgs, vds)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sweep.CompareFamilies(famFast, famRef)
	if err != nil {
		t.Fatal(err)
	}
	// Strategy pinned to Batch: the golden composition above is the
	// batched path, and Auto now resolves to the parallel scheduler
	// (whose chunked warm-start chains differ at float precision).
	res, err := Run(context.Background(), Request{
		Kind: RMSCompare, Model: fast, Ref: ref, Gates: vgs, Drains: vds,
		Strategy: Batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.RMSPercent[i] != want[i] {
			t.Fatalf("rms[%d] = %g, want %g", i, res.RMSPercent[i], want[i])
		}
	}
	sameFamilies(t, "model", res.Family, famFast)
	sameFamilies(t, "ref", res.RefFamily, famRef)

	// The precomputed-reference form must agree too.
	res2, err := Run(context.Background(), Request{
		Kind: RMSCompare, Model: fast, RefFamily: famRef, Gates: vgs, Drains: vds,
		Strategy: Batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res2.RMSPercent[i] != want[i] {
			t.Fatalf("refFamily form: rms[%d] = %g, want %g", i, res2.RMSPercent[i], want[i])
		}
	}
}

// TestIVPointPrebuildCancellation pins the runIVPoint context fix: an
// IVPoint job on a table-backed model must run the charge-table build
// under the job context (cancellable, attributed to the job) instead
// of hiding it inside the first solve.
func TestIVPointPrebuildCancellation(t *testing.T) {
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	ref.EnableTable(fettoy.TableOptions{})
	bias := fettoy.Bias{VG: 0.5, VD: 0.4}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Run(ctx, Request{Kind: IVPoint, Model: ref, Bias: bias})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("canceled IVPoint on table-backed model: want ErrCanceled, got %v", err)
	}
	// The aborted build must not poison the table, and the retried job
	// must carry the build in its own counter delta.
	res, err := Run(context.Background(), Request{Kind: IVPoint, Model: ref, Bias: bias})
	if err != nil {
		t.Fatal(err)
	}
	if !(res.IDS > 0) {
		t.Fatalf("degenerate IVPoint result: %+v", res)
	}
	if res.Metrics["fettoy.table.builds"] != 1 {
		t.Fatalf("table build not attributed to the IVPoint job: %v", res.Metrics)
	}
}

// TestRMSCompareRefFamilyValidation pins the runRMSCompare validation
// fix: a present-but-empty RefFamily (or one that does not cover the
// gate grid) must be rejected up front as an invalid request, not
// surface later from sweep.CompareFamilies as a numerical-looking
// failure.
func TestRMSCompareRefFamilyValidation(t *testing.T) {
	_, fast := buildPair(t, fettoy.Default())
	gates := []float64{0.4, 0.6}
	drains := []float64{0, 0.3, 0.6}
	for name, refFam := range map[string][]sweep.Curve{
		"empty":         {},
		"gate mismatch": {{VG: 0.4, VDS: drains, IDS: make([]float64, len(drains))}},
	} {
		_, err := Run(context.Background(), Request{
			Kind: RMSCompare, Model: fast, RefFamily: refFam,
			Gates: gates, Drains: drains,
		})
		if !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("%s RefFamily: want ErrInvalidRequest, got %v", name, err)
		}
		if errors.Is(err, ErrNumerical) {
			t.Fatalf("%s RefFamily: misclassified as numerical: %v", name, err)
		}
	}
}

// bracketSolver always fails the way the reference model does when its
// root bracket never encloses a sign change.
type bracketSolver struct{}

func (bracketSolver) IDS(fettoy.Bias) (float64, error) {
	return 0, fmt.Errorf("stub solve: %w", rootfind.ErrBadBracket)
}

// TestBracketFailureSurfacesThroughRun is the error-taxonomy gate: a
// solver bracket failure deep in a sweep must stay reachable with
// errors.Is through an engine.Run call, carry the ErrNumerical class,
// and not masquerade as a cancellation.
func TestBracketFailureSurfacesThroughRun(t *testing.T) {
	_, err := Run(context.Background(), Request{
		Kind:   FamilySweep,
		Model:  bracketSolver{},
		Gates:  []float64{0.5},
		Drains: []float64{0, 0.3},
	})
	if err == nil {
		t.Fatal("bracket failure vanished")
	}
	if !errors.Is(err, rootfind.ErrBadBracket) {
		t.Fatalf("errors.Is(err, rootfind.ErrBadBracket) = false: %v", err)
	}
	if !errors.Is(err, ErrNumerical) {
		t.Fatalf("errors.Is(err, ErrNumerical) = false: %v", err)
	}
	if errors.Is(err, ErrCanceled) {
		t.Fatalf("numerical failure classified as canceled: %v", err)
	}
	var je *JobError
	if !errors.As(err, &je) || je.Kind != FamilySweep {
		t.Fatalf("not a FamilySweep JobError: %v", err)
	}
}

// TestInvalidRequests checks the ErrInvalidRequest corner of the
// taxonomy.
func TestInvalidRequests(t *testing.T) {
	_, fast := buildPair(t, fettoy.Default())
	for name, req := range map[string]Request{
		"unknown kind":  {},
		"missing model": {Kind: FamilySweep, Gates: []float64{0.5}, Drains: []float64{0.1}},
		"empty grid":    {Kind: FamilySweep, Model: fast},
		"both refs": {Kind: RMSCompare, Model: fast, Ref: fast,
			RefFamily: []sweep.Curve{{}}, Gates: []float64{0.5}, Drains: []float64{0.1}},
		"neither ref":  {Kind: RMSCompare, Model: fast, Gates: []float64{0.5}, Drains: []float64{0.1}},
		"zero samples": {Kind: MonteCarlo},
		"missing deck": {Kind: Netlist},
	} {
		_, err := Run(context.Background(), req)
		if !errors.Is(err, ErrInvalidRequest) {
			t.Fatalf("%s: want ErrInvalidRequest, got %v", name, err)
		}
	}
}

// slowSolver burns wall clock per point and counts evaluations, so a
// cancellation test can measure promptness and counter consistency.
type slowSolver struct {
	delay time.Duration
	calls atomic.Int64
}

func (s *slowSolver) IDS(b fettoy.Bias) (float64, error) {
	s.calls.Add(1)
	time.Sleep(s.delay)
	return b.VG * b.VD, nil
}

// TestCancelMidSweep is the cancellation gate: canceling mid-sweep
// must return ErrCanceled promptly, leak no worker goroutines, and
// leave the telemetry point counters consistent with the points
// actually evaluated.
func TestCancelMidSweep(t *testing.T) {
	vgs := units.Linspace(0.1, 0.6, 8)
	vds := units.Linspace(0, 0.6, 50) // 400 points x 2ms >> the 25ms budget
	for _, tc := range []struct {
		name     string
		strategy Strategy
		workers  int
	}{
		{"parallel", Parallel, 4},
		{"serial-fallback", Batch, 0}, // slowSolver has no IDSBatch: row loop path
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			m := &slowSolver{delay: 2 * time.Millisecond}
			ctx, cancel := context.WithTimeout(context.Background(), 25*time.Millisecond)
			defer cancel()
			start := time.Now()
			res, err := Run(ctx, Request{
				Kind:     FamilySweep,
				Model:    m,
				Gates:    vgs,
				Drains:   vds,
				Strategy: tc.strategy,
				Workers:  tc.workers,
			})
			elapsed := time.Since(start)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("want ErrCanceled, got %v", err)
			}
			if elapsed > time.Second {
				t.Fatalf("cancellation took %v, want prompt return", elapsed)
			}
			total := int64(len(vgs) * len(vds))
			calls := m.calls.Load()
			if calls == 0 || calls >= total {
				t.Fatalf("evaluated %d of %d points; cancellation did not land mid-sweep", calls, total)
			}
			if pts := res.Metrics["sweep.points"]; pts > calls {
				t.Fatalf("sweep.points = %d but only %d solves ran", pts, calls)
			}
			// Workers must drain: the goroutine count returns to (about)
			// the pre-run baseline.
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > before+1 && time.Now().Before(deadline) {
				time.Sleep(5 * time.Millisecond)
			}
			if n := runtime.NumGoroutine(); n > before+1 {
				t.Fatalf("goroutines leaked: %d before, %d after", before, n)
			}
		})
	}
}

// TestCancelBeforeDispatch checks the already-canceled fast path.
func TestCancelBeforeDispatch(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, fast := buildPair(t, fettoy.Default())
	_, err := Run(ctx, Request{
		Kind: FamilySweep, Model: fast,
		Gates: []float64{0.5}, Drains: []float64{0.1},
	})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrCanceled wrapping context.Canceled, got %v", err)
	}
}

// TestMonteCarloEquivalence checks the MC job against the direct call
// and that cancellation classifies correctly.
func TestMonteCarloEquivalence(t *testing.T) {
	res, err := Run(context.Background(), Request{
		Kind:    MonteCarlo,
		Device:  fettoy.Default(),
		Bias:    fettoy.Bias{VG: 0.5, VD: 0.4},
		Samples: 50,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MC == nil || len(res.MC.Samples) != 50 || !(res.MC.Mean > 0) {
		t.Fatalf("degenerate MC result: %+v", res.MC)
	}
	// Same seed, same draws — the engine adds no nondeterminism.
	res2, err := Run(context.Background(), Request{
		Kind:    MonteCarlo,
		Device:  fettoy.Default(),
		Bias:    fettoy.Bias{VG: 0.5, VD: 0.4},
		Samples: 50,
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.MC.Samples {
		if res.MC.Samples[i] != res2.MC.Samples[i] {
			t.Fatalf("sample %d differs across identical jobs", i)
		}
	}
}

// TestMetricsDelta checks that a job's Metrics carry only its own
// counter movement.
func TestMetricsDelta(t *testing.T) {
	ref, _ := buildPair(t, fettoy.Default())
	res, err := Run(context.Background(), Request{
		Kind:   FamilySweep,
		Model:  ref,
		Gates:  []float64{0.5},
		Drains: units.Linspace(0, 0.6, 5),
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Metrics["sweep.points"]; got != 5 {
		t.Fatalf("sweep.points delta = %d, want 5", got)
	}
	if res.Metrics["fettoy.solves"] <= 0 {
		t.Fatalf("no solver work attributed: %v", res.Metrics)
	}
	if res.Elapsed <= 0 {
		t.Fatal("Elapsed not measured")
	}
}

// TestPrebuildCancellation checks that a charge-table build scheduled
// by the engine is itself cancellable (device.ContextBuilder), and
// that the aborted build retries cleanly on the next job.
func TestPrebuildCancellation(t *testing.T) {
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	ref.EnableTable(fettoy.TableOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err = Run(ctx, Request{
		Kind: FamilySweep, Model: ref,
		Gates: []float64{0.5}, Drains: []float64{0.1, 0.2},
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	// The canceled build must not poison the table: the same model
	// completes under a live context.
	res, err := Run(context.Background(), Request{
		Kind: FamilySweep, Model: ref,
		Gates: []float64{0.5}, Drains: []float64{0.1, 0.2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Family) != 1 || math.IsNaN(res.Family[0].IDS[1]) {
		t.Fatalf("retry produced a degenerate family: %+v", res.Family)
	}
}

// TestResolveStrategy pins the Auto mapping: the zero-value request
// (Workers == 0, meaning GOMAXPROCS to FamilyParallel) must land on
// the parallel scheduler; only an explicit Workers: 1 keeps the
// single-threaded batch path. Explicit strategies pass through.
func TestResolveStrategy(t *testing.T) {
	cases := []struct {
		st      Strategy
		workers int
		want    Strategy
	}{
		{Auto, 0, Parallel},
		{Auto, 1, Batch},
		{Auto, 2, Parallel},
		{Auto, 16, Parallel},
		{Serial, 0, Serial},
		{Batch, 0, Batch},
		{Parallel, 1, Parallel},
	}
	for _, c := range cases {
		if got := resolveStrategy(c.st, c.workers); got != c.want {
			t.Errorf("resolveStrategy(%d, %d) = %d, want %d", c.st, c.workers, got, c.want)
		}
	}
}

// TestDefaultRequestRunsParallel is the regression test for the Auto
// bug where Workers == 0 silently fell back to the single-threaded
// batch path: a default FamilySweep request must leave per-worker
// accounting (sweep.worker.*.points), which only the chunked parallel
// scheduler records, and the per-worker totals must cover the grid.
func TestDefaultRequestRunsParallel(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	_, fast := buildPair(t, fettoy.Default())
	gates := units.Linspace(0.2, 0.6, 3)
	drains := units.Linspace(0, 0.6, 8)
	res, err := Run(context.Background(), Request{
		Kind:   FamilySweep,
		Model:  fast,
		Gates:  gates,
		Drains: drains,
	})
	if err != nil {
		t.Fatal(err)
	}
	var workerPts int64
	for k, v := range res.Metrics {
		if strings.HasPrefix(k, "sweep.worker.") && strings.HasSuffix(k, ".points") {
			workerPts += v
		}
	}
	want := int64(len(gates) * len(drains))
	if workerPts != want {
		t.Fatalf("per-worker points = %d, want %d (default request did not run the parallel scheduler; metrics: %v)",
			workerPts, want, res.Metrics)
	}
}

// BenchmarkEngineRunIVPoint measures one served-size job through Run —
// dispatch, the job span and the per-job counter bookkeeping around a
// Model 1 bias point — with telemetry on, as a server runs it.
func BenchmarkEngineRunIVPoint(b *testing.B) {
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		b.Fatal(err)
	}
	m1, err := core.Model1(ref)
	if err != nil {
		b.Fatal(err)
	}
	telemetry.Enable()
	defer telemetry.Disable()
	ctx := context.Background()
	req := Request{Kind: IVPoint, Model: m1, Bias: fettoy.Bias{VG: 0.5, VD: 0.4}}
	if _, err := Run(ctx, req); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}
