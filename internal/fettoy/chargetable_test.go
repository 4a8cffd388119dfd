package fettoy

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"sync"
	"testing"

	"cntfet/internal/telemetry"
)

// TestBuildContextCancelAndRetry: a canceled build must return an
// error wrapping the context's cause, leave the table unbuilt, and a
// later build (or lookup) must start over and succeed — the
// mutex-plus-atomic publication this depends on is why the table does
// not use sync.Once.
func TestBuildContextCancelAndRetry(t *testing.T) {
	m, err := New(Default())
	if err != nil {
		t.Fatal(err)
	}
	tab := m.EnableTable(TableOptions{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := tab.BuildContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	// Model-level ContextBuilder surfaces the same failure.
	if err := m.BuildContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("model BuildContext: want context.Canceled, got %v", err)
	}
	// Retry under a live context succeeds and publishes a real grid.
	if err := tab.BuildContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n := tab.Nodes(); n < 65 {
		t.Fatalf("retried build produced %d nodes", n)
	}
	// A model without a table has nothing to build, even canceled.
	plain, err := New(Default())
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.BuildContext(ctx); err != nil {
		t.Fatalf("table-less BuildContext: %v", err)
	}
}

// TestChargeTableAccuracyAcrossDevices sweeps the interpolated state
// density against the true integrals — preciseModel, the adaptive
// quadrature at 1e-15·D0 — over the operating-condition envelope the
// sweep engine is used in: cold (sharper band edge, finer grid needed),
// nominal and hot devices at three Fermi levels, on the paper's tube
// and the Javey tube. The default RelTol of 1e-6 must hold with margin
// at every (T, EF). The yardstick is the precise integral, not N at its
// own 1e-8·D0 tolerance: that is off by up to ~4e-3 relative in the
// band-edge tail, so measuring against it would grade the reference's
// error instead of the table's.
func TestChargeTableAccuracyAcrossDevices(t *testing.T) {
	for name, base := range map[string]Device{"default": Default(), "javey": Javey()} {
		for _, temp := range []float64{150, 300, 450} {
			for _, ef := range []float64{-0.5, -0.32, 0} {
				d := base
				d.T = temp
				d.EF = ef
				m, err := New(d)
				if err != nil {
					t.Fatal(err)
				}
				ref := preciseModel(t, d)
				tbl := m.EnableTable(TableOptions{})
				umin, umax := tbl.Range()
				// The table's error bound is relative to |N| with an absolute
				// floor of 1e-9 of the largest tabulated density — measure
				// against the same yardstick (deep below the band N underflows
				// towards 1e-50 states/m, where a pure relative error is
				// meaningless and irrelevant: that charge cannot move a solve).
				floor := 1e-9 * ref.N(umax)
				// Same idea for N': it only steers Newton through the quantum
				// capacitance term qcs·N' (qcs ~ 1e-10 V·m/states), so errors
				// far below its peak magnitude are invisible to the solver.
				floorP := 1e-6 * ref.NPrime(umax)
				const samples = 400
				worst := 0.0
				for i := 0; i <= samples; i++ {
					// Offset from the node lattice so midpoints (the worst
					// case for Hermite interpolation) are exercised too.
					u := umin + (umax-umin)*(float64(i)+0.37)/(samples+1)
					got, gotP := tbl.At(u)
					want := ref.N(u)
					wantP := ref.NPrime(u)
					relN := math.Abs(got-want) / (math.Abs(want) + floor)
					if relN > worst {
						worst = relN
					}
					if relN > 1e-5 {
						t.Fatalf("%s T=%gK EF=%g: N(%g) table %g vs precise %g (rel %g)",
							name, temp, ef, u, got, want, relN)
					}
					// The derivative converges one order slower than the
					// value; 1e-3 relative (plus the scaled floor for the
					// exponentially dead region below the band) is still far
					// inside the solver's needs.
					if math.Abs(gotP-wantP) > 1e-3*math.Abs(wantP)+floorP {
						t.Fatalf("%s T=%gK EF=%g: N'(%g) table %g vs precise %g",
							name, temp, ef, u, gotP, wantP)
					}
				}
				t.Logf("%s T=%gK EF=%g: %d nodes, worst rel N error %.3g", name, temp, ef, tbl.Nodes(), worst)
			}
		}
	}
}

// TestChargeTableOutOfRangeFallsBack checks the miss path: lookups
// outside the grid must return the exact quadrature values.
func TestChargeTableOutOfRangeFallsBack(t *testing.T) {
	m := newDefault(t)
	tbl := NewChargeTable(m, TableOptions{})
	umin, umax := tbl.Range()
	for _, u := range []float64{umin - 0.5, umax + 0.5} {
		n, np := tbl.At(u)
		if n != m.N(u) || np != m.NPrime(u) {
			t.Fatalf("out-of-range At(%g) = (%g,%g), want exact (%g,%g)",
				u, n, np, m.N(u), m.NPrime(u))
		}
	}
}

// TestChargeTableRespectsExplicitOptions checks the option plumbing:
// a custom range is honoured and MaxNodes caps refinement.
func TestChargeTableRespectsExplicitOptions(t *testing.T) {
	m := newDefault(t)
	tbl := NewChargeTable(m, TableOptions{UMin: -0.5, UMax: 0.25, InitIntervals: 16, MaxNodes: 40})
	if umin, umax := tbl.Range(); umin != -0.5 || umax != 0.25 {
		t.Fatalf("range (%g,%g)", umin, umax)
	}
	if n := tbl.Nodes(); n > 40 {
		t.Fatalf("MaxNodes=40 but grid has %d nodes", n)
	}
}

// TestChargeTableConcurrentBuild is the -race hammer: many goroutines
// race to trigger the lazy build while looking up scattered points.
// Every goroutine must observe the same fully built grid (identical
// values at identical arguments) with no data race.
func TestChargeTableConcurrentBuild(t *testing.T) {
	m := newDefault(t)
	tbl := NewChargeTable(m, TableOptions{})
	umin, umax := tbl.Range()
	const workers = 16
	probe := make([]float64, 64)
	for i := range probe {
		probe[i] = umin + (umax-umin)*float64(i)/float64(len(probe)-1)
	}
	refN := make([][]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Mix of paths under race: first calls contend on the lazy
			// build, the rest are hot lookups.
			vals := make([]float64, len(probe))
			for rep := 0; rep < 50; rep++ {
				for i, u := range probe {
					n, _ := tbl.At(u)
					vals[i] = n
				}
			}
			refN[w] = vals
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		for i := range probe {
			if refN[w][i] != refN[0][i] {
				t.Fatalf("worker %d saw N(%g)=%g, worker 0 saw %g",
					w, probe[i], refN[w][i], refN[0][i])
			}
		}
	}
	if tbl.Nodes() == 0 {
		t.Fatal("no grid built")
	}
}

// TestWarmStartMatchesColdStart checks continuation correctness on both
// solve paths: starting Newton from the neighbouring root must converge
// to the same VSC as the cold bracket around -UL.
func TestWarmStartMatchesColdStart(t *testing.T) {
	for _, tabulated := range []bool{false, true} {
		m := newDefault(t)
		if tabulated {
			m.EnableTable(TableOptions{})
		}
		for _, vg := range []float64{0.2, 0.45, 0.6} {
			guess := math.NaN()
			for vd := 0.0; vd <= 0.6+1e-12; vd += 0.05 {
				b := Bias{VG: vg, VD: vd}
				cold, _, err := m.SolveVSC(b)
				if err != nil {
					t.Fatalf("cold %+v: %v", b, err)
				}
				warm, _, err := m.SolveVSCFrom(b, guess)
				if err != nil {
					t.Fatalf("warm %+v: %v", b, err)
				}
				if math.Abs(warm-cold) > 1e-9 {
					t.Fatalf("tabulated=%v %+v: warm VSC %g vs cold %g", tabulated, b, warm, cold)
				}
				guess = warm
			}
		}
	}
}

// TestWarmStartNaNGuessIsCold checks the sentinel: SolveVSCFrom with a
// NaN guess must behave exactly like SolveVSC.
func TestWarmStartNaNGuessIsCold(t *testing.T) {
	m := newDefault(t)
	b := Bias{VG: 0.5, VD: 0.3}
	cold, stCold, err := m.SolveVSC(b)
	if err != nil {
		t.Fatal(err)
	}
	nan, stNaN, err := m.SolveVSCFrom(b, math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if nan != cold || stNaN != stCold {
		t.Fatalf("NaN guess diverged from cold start: %g/%+v vs %g/%+v", nan, stNaN, cold, stCold)
	}
}

// TestWarmStartRecoversFromBadGuess checks the safeguard: a guess far
// from the root (the bracket must expand across it) still converges.
func TestWarmStartRecoversFromBadGuess(t *testing.T) {
	for _, tabulated := range []bool{false, true} {
		m := newDefault(t)
		if tabulated {
			m.EnableTable(TableOptions{})
		}
		b := Bias{VG: 0.6, VD: 0.6}
		cold, _, err := m.SolveVSC(b)
		if err != nil {
			t.Fatal(err)
		}
		warm, _, err := m.SolveVSCFrom(b, cold+0.4)
		if err != nil {
			t.Fatalf("tabulated=%v: %v", tabulated, err)
		}
		if math.Abs(warm-cold) > 1e-9 {
			t.Fatalf("tabulated=%v: bad guess converged to %g, want %g", tabulated, warm, cold)
		}
	}
}

// TestTableSolveKeepsConvergedIterate: at this bias a cold table solve
// reaches a residual of ~2.5e-17 at its fourth iterate, on the low side
// of the root. Newton must stop there, not bisect the rest of the
// bracket for another ~35 iterations.
func TestTableSolveKeepsConvergedIterate(t *testing.T) {
	m := newDefault(t)
	m.EnableTable(TableOptions{})
	b := Bias{VG: 0.3, VD: 0.59}
	_, st, err := m.SolveVSC(b)
	if err != nil {
		t.Fatal(err)
	}
	if st.Iterations > 6 {
		t.Fatalf("%+v: cold table solve took %d iterations, want at most 6", b, st.Iterations)
	}
}

// TestTableSolveMatchesDirect checks the headline accuracy bar: IDS
// through the tabulated solve path agrees with direct quadrature to
// well below the 0.1 % target across the paper's bias grid.
func TestTableSolveMatchesDirect(t *testing.T) {
	direct := newDefault(t)
	tabbed := newDefault(t)
	tabbed.EnableTable(TableOptions{})
	for _, vg := range []float64{0.1, 0.35, 0.6} {
		for _, vd := range []float64{0, 0.15, 0.3, 0.45, 0.6} {
			b := Bias{VG: vg, VD: vd}
			iDirect, err := direct.IDS(b)
			if err != nil {
				t.Fatal(err)
			}
			iTable, err := tabbed.IDS(b)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(iTable-iDirect) > 1e-5*math.Abs(iDirect)+1e-18 {
				t.Fatalf("%+v: table IDS %g vs direct %g", b, iTable, iDirect)
			}
		}
	}
}

// TestTableIDSMatchesPrecise checks the served answer against the true
// one: table-backed reference IDS must stay within 5e-7 relative of a
// direct solve on preciseModel over the nine (T, EF) cells and the
// paper's bias grid.
func TestTableIDSMatchesPrecise(t *testing.T) {
	worst := 0.0
	for _, temp := range []float64{150, 300, 450} {
		for _, ef := range []float64{-0.5, -0.32, 0} {
			d := Default()
			d.T, d.EF = temp, ef
			tabbed, err := New(d)
			if err != nil {
				t.Fatal(err)
			}
			tabbed.EnableTable(TableOptions{})
			ref := preciseModel(t, d)
			for vg := 0.0; vg <= 0.6+1e-9; vg += 0.1 {
				// Each row warm-starts the precise solves along VD, as a
				// sweep does: the roots are the same, the iterations fewer.
				guess := math.NaN()
				for vd := 0.0; vd <= 0.6+1e-9; vd += 0.05 {
					b := Bias{VG: vg, VD: vd}
					got, err := tabbed.IDS(b)
					if err != nil {
						t.Fatal(err)
					}
					want, vsc, err := ref.IDSFrom(b, guess)
					if err != nil {
						t.Fatal(err)
					}
					guess = vsc
					rel := math.Abs(got-want) / (math.Abs(want) + 1e-30)
					worst = math.Max(worst, rel)
					if rel > 5e-7 {
						t.Fatalf("T=%gK EF=%g %+v: table IDS %.17g vs precise %.17g (rel %.3g)",
							temp, ef, b, got, want, rel)
					}
				}
			}
		}
	}
	t.Logf("worst relative IDS error %.3g", worst)
}

// TestIDSBatchThreadsContinuation checks the batch path end to end: one
// IDSBatch row must reproduce the warm-started chain of per-point
// IDSFrom calls bit for bit, with the same solves, Newton iterations
// and table hits and misses, and the same trace events when a trace is
// attached. It covers a model without a table, one with a table, one
// with a table and a trace, and a row that leaves a narrow table's
// window partway.
func TestIDSBatchThreadsContinuation(t *testing.T) {
	counters := []*telemetry.Counter{metrics.solves, metrics.newtonIters, metrics.tableHits, metrics.tableMisses}
	read := func() []int64 {
		v := make([]int64, len(counters))
		for i, c := range counters {
			v[i] = c.Value()
		}
		return v
	}
	delta := func(before []int64) []int64 {
		v := read()
		for i := range v {
			v[i] -= before[i]
		}
		return v
	}
	for _, tc := range []struct {
		name  string
		table *TableOptions
		trace bool
	}{
		{name: "quadrature"},
		{name: "table", table: &TableOptions{}},
		{name: "table+trace", table: &TableOptions{}, trace: true},
		{name: "leaves window", table: &TableOptions{UMin: -0.45, UMax: 0.3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n = 25
			bias := make([]Bias, n)
			for i := range bias {
				bias[i] = Bias{VG: 0.55, VD: 0.6 * float64(i) / (n - 1)}
			}
			// Two identical models, so each path starts from the same
			// state (a built table, an empty trace).
			var models [2]*Model
			var traces [2]*telemetry.Tracer
			for k := range models {
				models[k] = newDefault(t)
				if tc.table != nil {
					if err := models[k].EnableTable(*tc.table).BuildContext(context.Background()); err != nil {
						t.Fatal(err)
					}
				}
				if tc.trace {
					traces[k] = telemetry.NewTracer(1 << 12)
					traces[k].SetEnabled(true)
					models[k].SetTrace(traces[k])
				}
			}

			before := read()
			out := make([]float64, n)
			if err := models[0].IDSBatch(bias, out); err != nil {
				t.Fatal(err)
			}
			batch := delta(before)

			before = read()
			guess := math.NaN()
			for i, b := range bias {
				ids, vsc, err := models[1].IDSFrom(b, guess)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(out[i]) != math.Float64bits(ids) {
					t.Fatalf("point %d %+v: batch %g vs point solve %g", i, b, out[i], ids)
				}
				guess = vsc
			}
			chain := delta(before)

			if !slices.Equal(batch, chain) {
				t.Fatalf("solves/iters/hits/misses: batch %v, chain %v", batch, chain)
			}
			if misses := batch[3]; tc.name == "leaves window" && (misses == 0 || misses == n) {
				t.Fatalf("narrow window missed %d of %d points, want some", misses, n)
			}
			if tc.trace {
				evBatch, evChain := traces[0].Spans(), traces[1].Spans()
				if len(evBatch) == 0 || len(evBatch) != len(evChain) {
					t.Fatalf("trace events: batch %d, chain %d", len(evBatch), len(evChain))
				}
				for i := range evBatch {
					a, b := evBatch[i], evChain[i]
					if a.Kind != b.Kind || !maps.Equal(a.Attrs, b.Attrs) {
						t.Fatalf("event %d: batch %+v, chain %+v", i, a, b)
					}
				}
			}
		})
	}
}

// TestQuadratureSolveIntegralCount: a quadrature solve evaluates N at
// both terminals per residual evaluation and N' at both per iteration,
// and nothing else: 2·FuncEvals + 2·Iterations integrals.
func TestQuadratureSolveIntegralCount(t *testing.T) {
	m := newDefault(t)
	i0, _ := m.Counters()
	_, st, err := m.SolveVSC(Bias{VG: 0.5, VD: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	i1, _ := m.Counters()
	if got, want := i1-i0, 2*st.FuncEvals+2*st.Iterations; got != want {
		t.Fatalf("%d integrals for %+v, want 2·FuncEvals + 2·Iterations = %d", got, st, want)
	}
	t.Logf("%d integrals, %+v", i1-i0, st)
}

// TestCountersExactUnderConcurrency pins the per-model attribution
// satellite: with G goroutines solving the same point K times on one
// model, Counters must report exactly G·K times the single-solve work
// (warm-started identical solves do identical work).
func TestCountersExactUnderConcurrency(t *testing.T) {
	m := newDefault(t)
	b := Bias{VG: 0.5, VD: 0.3}
	// Calibrate one solve's work on a fresh identical model.
	cal := newDefault(t)
	calI0, calN0 := cal.Counters()
	if _, _, err := cal.SolveVSC(b); err != nil {
		t.Fatal(err)
	}
	calI1, calN1 := cal.Counters()
	perI, perN := calI1-calI0, calN1-calN0
	if perI == 0 || perN == 0 {
		t.Fatalf("calibration solve did no work: %d integrals, %d iters", perI, perN)
	}

	i0, n0 := m.Counters()
	const workers, reps = 8, 5
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				if _, _, err := m.SolveVSC(b); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	i1, n1 := m.Counters()
	if got, want := i1-i0, workers*reps*perI; got != want {
		t.Fatalf("integral count %d, want exactly %d", got, want)
	}
	if got, want := n1-n0, workers*reps*perN; got != want {
		t.Fatalf("newton count %d, want exactly %d", got, want)
	}
}

// TestTableLookupZeroAlloc pins the hot-path allocation budget: a
// tabulated warm solve must not allocate (the closures in solvePoint
// must not escape). Skipped under -race, whose instrumentation
// allocates.
func TestTableLookupZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := newDefault(t)
	tbl := m.EnableTable(TableOptions{})
	if err := tbl.BuildContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	b := Bias{VG: 0.5, VD: 0.3}
	vsc, _, err := m.SolveVSC(b)
	if err != nil {
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, _, err := m.SolveVSCFrom(b, vsc); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("tabulated warm solve allocates %.1f objects per call", avg)
	}
	// The raw lookup is allocation-free too.
	if avg := testing.AllocsPerRun(200, func() {
		tbl.At(-0.1)
	}); avg != 0 {
		t.Fatalf("table lookup allocates %.1f objects per call", avg)
	}
}

// TestIDSBatchTableZeroAlloc pins the table-backed batch kernel's
// allocation budget: one warm VDS row through IDSBatch must not
// allocate, telemetry off and on (the kernel hoists the tabulation,
// times solves with explicit time.Now/Observe pairs instead of the
// closure-allocating timer helper, and flushes locally-accumulated
// counters once). Skipped under -race, whose instrumentation
// allocates.
func TestIDSBatchTableZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := newDefault(t)
	tbl := m.EnableTable(TableOptions{})
	if err := tbl.BuildContext(context.Background()); err != nil {
		t.Fatal(err)
	}
	bias := make([]Bias, 61)
	out := make([]float64, len(bias))
	for i := range bias {
		bias[i] = Bias{VG: 0.5, VD: 0.6 * float64(i) / float64(len(bias)-1)}
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
			t.Errorf("telemetry=%v: IDSBatch allocates %.1f objects per row", gate, avg)
		}
	}
	telemetry.Disable()
}

// BenchmarkChargeTableBuild times one cold default-option table build
// per op at the paper's three temperatures and reports its node count.
func BenchmarkChargeTableBuild(b *testing.B) {
	for _, temp := range []float64{150, 300, 450} {
		b.Run(fmt.Sprintf("T=%g", temp), func(b *testing.B) {
			d := Default()
			d.T = temp
			m, err := New(d)
			if err != nil {
				b.Fatal(err)
			}
			nodes := 0
			b.ReportAllocs()
			for b.Loop() {
				nodes = NewChargeTable(m, TableOptions{}).Nodes()
			}
			b.ReportMetric(float64(nodes), "nodes")
		})
	}
}

// TestShareTable: a table serves another model only when the two
// tabulate the same state density (bit-equal bands, E1 and kT) and the
// table's range covers the model's own default window. A shared table
// builds once, and a sharing model answers bit-identically to one that
// owns a table over the same range.
func TestShareTable(t *testing.T) {
	model := func(dev Device) *Model {
		t.Helper()
		m, err := New(dev)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	at := func(temp, ef float64) *Model {
		d := Default()
		d.T, d.EF = temp, ef
		return model(d)
	}
	wide := TableOptions{UMin: -1.85, UMax: 1.45}
	builder := at(300, -0.5)
	tab := NewChargeTable(builder, wide)

	for _, tc := range []struct {
		name string
		m    *Model
	}{
		{"another temperature", at(450, -0.32)},
		{"the javey preset", func() *Model { d := Javey(); d.EF = -0.32; return model(d) }()},
		{"a window past the range", at(300, 0.1)},
		{"a window below the range", at(300, -0.6)},
	} {
		if err := tc.m.ShareTable(tab); err == nil {
			t.Errorf("ShareTable accepted a table for %s", tc.name)
		}
		if tc.m.Table() != nil {
			t.Errorf("rejected ShareTable for %s still attached the table", tc.name)
		}
	}

	shared := at(300, 0)
	if err := shared.ShareTable(tab); err != nil {
		t.Fatal(err)
	}
	if err := builder.ShareTable(tab); err != nil {
		t.Fatal(err)
	}
	own := at(300, 0)
	own.EnableTable(wide)
	builds := metrics.tableBuilds.Value()
	b := Bias{VG: 0.5, VD: 0.4}
	got, err := shared.IDS(b)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := builder.IDS(b); err != nil {
		t.Fatal(err)
	}
	want, err := own.IDS(b)
	if err != nil {
		t.Fatal(err)
	}
	if d := metrics.tableBuilds.Value() - builds; d != 2 {
		t.Fatalf("one shared and one own table built %d times, want 2", d)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("model sharing an EF=-0.5 table answered %g, own table over the same range %g", got, want)
	}
}
