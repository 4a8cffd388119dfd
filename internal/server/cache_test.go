package server

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"
	"time"

	"cntfet/internal/device"
	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// TestCanceledTableBuildRetries covers the reference model's one build
// path end to end with a real ModelCache: a reference iv-point job
// whose deadline ends before its lazy charge-table build completes
// answers 499 and leaves the cached model untabulated; the next
// request for the key (a cache hit) builds the table exactly once and
// answers bit-identically to a fresh server.
func TestCanceledTableBuildRetries(t *testing.T) {
	// The coldest cell has the finest grid and the longest build.
	const body = `{"kind": "iv-point", "model": {"family": "reference", "t": 150, "ef": 0}, "vg": 0.5, "vd": 0.4}`
	reg := telemetry.Default()
	cache := NewModelCache()

	builds := reg.Counter(telemetry.KeyFettoyTableBuilds).Value()
	short := holdUntilDeadline(New(Config{Timeout: 5 * time.Microsecond, Resolver: cache}))
	w := post(t, short.Handler(), body)
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("timed-out reference job answered %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Class != "canceled" {
		t.Fatalf("499 body not classified canceled: %s", w.Body)
	}
	if d := reg.Counter(telemetry.KeyFettoyTableBuilds).Value() - builds; d != 0 {
		t.Fatalf("canceled job published %d charge tables, want 0", d)
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("canceled job left %d cached models, want the 1 it resolved", n)
	}

	hits := reg.Counter(telemetry.KeyServerCacheHits).Value()
	builds = reg.Counter(telemetry.KeyFettoyTableBuilds).Value()
	retried := decodeJob(t, post(t, New(Config{Resolver: cache}).Handler(), body))
	if d := reg.Counter(telemetry.KeyServerCacheHits).Value() - hits; d != 1 {
		t.Fatalf("retry moved server.cache.hits by %d, want 1", d)
	}
	if d := reg.Counter(telemetry.KeyFettoyTableBuilds).Value() - builds; d != 1 {
		t.Fatalf("retry built %d charge tables, want 1", d)
	}

	fresh := decodeJob(t, post(t, New(Config{}).Handler(), body))
	if math.Float64bits(retried.IDS) != math.Float64bits(fresh.IDS) {
		t.Fatalf("retry after a canceled build answered %g, fresh server %g", retried.IDS, fresh.IDS)
	}
}

// TestModelCacheEvicts is the regression test for the cache that never
// evicted: 10k cold keys keep at most maxCachedModels models built,
// each key past the cap counts one server.cache.evictions, and an
// evicted key rebuilds a bit-identical model.
func TestModelCacheEvicts(t *testing.T) {
	const keys = 10000
	biases := []fettoy.Bias{{VG: 0.5, VD: 0.4}, {VG: 0.3, VD: 0.05}, {VG: 0.6, VD: 0.6}}
	spec := func(i int) ModelSpec { return ModelSpec{Family: FamilyModel2, T: 150 + 0.03*float64(i)} }
	currents := func(m device.Solver) []uint64 {
		t.Helper()
		bits := make([]uint64, len(biases))
		for j, b := range biases {
			ids, err := m.IDS(b)
			if err != nil {
				t.Fatal(err)
			}
			bits[j] = math.Float64bits(ids)
		}
		return bits
	}

	c := NewModelCache()
	reg := telemetry.Default()
	mark := reg.CounterMark(nil)
	ctx := context.Background()
	first := make([][]uint64, keys)
	for i := range keys {
		m, _, err := c.Resolve(ctx, spec(i))
		if err != nil {
			t.Fatal(err)
		}
		first[i] = currents(m)
		if n := c.Len(); n > maxCachedModels {
			t.Fatalf("after %d keys the cache holds %d models, cap %d", i+1, n, maxCachedModels)
		}
	}
	if got, want := reg.CounterDelta(mark)[telemetry.KeyServerCacheEvictions], int64(keys-maxCachedModels); got != want {
		t.Fatalf("server.cache.evictions moved by %d, want %d", got, want)
	}

	rebuilt := 0
	for i := 0; i < keys && rebuilt < 20; i++ {
		s := spec(i)
		dev, err := s.device()
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		_, held := c.entries[specCacheKey(s, dev)]
		c.mu.Unlock()
		if held {
			continue
		}
		m, cached, err := c.Resolve(ctx, s)
		if err != nil || cached {
			t.Fatalf("evicted key %d: cached=%v err=%v, want a rebuild", i, cached, err)
		}
		if got := currents(m); !slices.Equal(got, first[i]) {
			t.Fatalf("evicted key %d rebuilt to different currents: %x, first build %x", i, got, first[i])
		}
		rebuilt++
	}
	if rebuilt == 0 {
		t.Fatal("no key was evicted")
	}
}

// TestTableCacheEvicts: past maxCachedModels distinct temperatures the
// cache holds at most maxCachedModels charge tables.
func TestTableCacheEvicts(t *testing.T) {
	c := NewModelCache()
	for i := range maxCachedModels + 50 {
		if _, _, err := c.Resolve(context.Background(), ModelSpec{Family: FamilyReference, T: 150 + 0.1*float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(c.tables); n != maxCachedModels {
		t.Fatalf("cache holds %d charge tables, want the cap %d", n, maxCachedModels)
	}
}

// TestModelCacheEvictsConcurrently resolves overlapping cold keys from
// several goroutines past the cap: evictions race with builds and with
// hits on the same keys, every resolve must still succeed, and the
// cache may exceed its cap only by the builds in flight.
func TestModelCacheEvictsConcurrently(t *testing.T) {
	const workers, keys = 4, maxCachedModels + 300
	c := NewModelCache()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				k := (i*(w+1) + w*97) % keys
				if _, _, err := c.Resolve(context.Background(), ModelSpec{T: 150 + 0.1*float64(k)}); err != nil {
					t.Error(err)
					return
				}
				if n := c.Len(); n > maxCachedModels+workers {
					t.Errorf("cache holds %d models, cap %d with %d builders", n, maxCachedModels, workers)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// The paper's nine (T, EF) cells: three temperatures, each with the
// three Fermi levels of Tables II–IV, which share one EF band.
var (
	paperTemps = []float64{150, 300, 450}
	paperEFs   = []float64{-0.5, -0.32, 0}
)

// referenceIVBody is one reference iv-point job at (temp, ef).
func referenceIVBody(temp, ef float64) string {
	return fmt.Sprintf(`{"kind": "iv-point", "model": {"family": "reference", "t": %g, "ef": %g}, "vg": 0.5, "vd": 0.4}`, temp, ef)
}

// TestReferenceCellsShareThreeTables: the nine reference cells through
// one ModelCache are nine models over three charge tables, one per
// temperature, each built once.
func TestReferenceCellsShareThreeTables(t *testing.T) {
	cache := NewModelCache()
	h := New(Config{Resolver: cache}).Handler()
	builds := telemetry.Default().Counter(telemetry.KeyFettoyTableBuilds)
	before := builds.Value()
	for _, temp := range paperTemps {
		for _, ef := range paperEFs {
			decodeJob(t, post(t, h, referenceIVBody(temp, ef)))
		}
	}
	if d := builds.Value() - before; d != 3 {
		t.Fatalf("nine reference cells built %d charge tables, want 3", d)
	}
	if n := cache.Len(); n != 9 {
		t.Fatalf("cache holds %d models, want 9", n)
	}
	if n := len(cache.tables); n != 3 {
		t.Fatalf("cache holds %d charge tables, want 3", n)
	}
}

// TestConcurrentFirstJobsShareOneBuild: the first jobs of three EFs at
// one temperature, arriving together, pay for one table build between
// them, and answer bit-identically to the same jobs run one by one on
// a fresh cache.
func TestConcurrentFirstJobsShareOneBuild(t *testing.T) {
	const temp = 150 // the finest grid: the longest build to overlap
	builds := telemetry.Default().Counter(telemetry.KeyFettoyTableBuilds)
	before := builds.Value()
	h := New(Config{MaxInFlight: len(paperEFs), Resolver: NewModelCache()}).Handler()
	recs := make([]*httptest.ResponseRecorder, len(paperEFs))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, ef := range paperEFs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			recs[i] = post(t, h, referenceIVBody(temp, ef))
		}()
	}
	close(start)
	wg.Wait()
	if d := builds.Value() - before; d != 1 {
		t.Fatalf("three concurrent first jobs built %d charge tables, want 1", d)
	}

	seq := New(Config{Resolver: NewModelCache()}).Handler()
	for i, ef := range paperEFs {
		got := decodeJob(t, recs[i])
		want := decodeJob(t, post(t, seq, referenceIVBody(temp, ef)))
		if math.Float64bits(got.IDS) != math.Float64bits(want.IDS) {
			t.Fatalf("EF=%g: concurrent first job answered %g, sequential run %g", ef, got.IDS, want.IDS)
		}
	}
}

// TestCanceledSharedBuildRetriedByAnotherEF: a shared table whose build
// is canceled under one EF's job stays unbuilt in the cache, and the
// next job of another EF at that temperature builds it once and answers
// bit-identically to a fresh server.
func TestCanceledSharedBuildRetriedByAnotherEF(t *testing.T) {
	builds := telemetry.Default().Counter(telemetry.KeyFettoyTableBuilds)
	cache := NewModelCache()
	before := builds.Value()
	short := holdUntilDeadline(New(Config{Timeout: 5 * time.Microsecond, Resolver: cache}))
	if w := post(t, short.Handler(), referenceIVBody(150, -0.5)); w.Code != StatusClientClosedRequest {
		t.Fatalf("timed-out reference job answered %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body)
	}
	if d := builds.Value() - before; d != 0 {
		t.Fatalf("canceled job published %d charge tables, want 0", d)
	}
	if n := len(cache.tables); n != 1 {
		t.Fatalf("canceled job left %d charge tables in the cache, want its 1 unbuilt table", n)
	}

	body := referenceIVBody(150, 0)
	before = builds.Value()
	retried := decodeJob(t, post(t, New(Config{Resolver: cache}).Handler(), body))
	if d := builds.Value() - before; d != 1 {
		t.Fatalf("another EF's job built %d charge tables, want 1", d)
	}
	if n := len(cache.tables); n != 1 {
		t.Fatalf("cache holds %d charge tables after the retry, want 1", n)
	}
	fresh := decodeJob(t, post(t, New(Config{}).Handler(), body))
	if math.Float64bits(retried.IDS) != math.Float64bits(fresh.IDS) {
		t.Fatalf("retry after a canceled shared build answered %g, fresh server %g", retried.IDS, fresh.IDS)
	}
}

// holdUntilDeadline makes every engine run of s wait for its job's
// deadline before it starts, so a 5 µs deadline deterministically
// lands before the charge-table build, however loaded the machine.
func holdUntilDeadline(s *Server) *Server {
	s.flights.beforeRun = func(ctx context.Context) { <-ctx.Done() }
	return s
}

// TestSharedTableAccuracy: in every cell, reference IDS through the
// shared table stays as close to direct quadrature (no table) as IDS
// through a table over the cell's own default window, on a 13×13 VG×VD
// grid over [0, 0.6] V. Both tables interpolate N(u) to RelTol = 1e-6,
// so their worst errors differ by noise; "as close" allows 1e-7, a
// tenth of that tolerance.
func TestSharedTableAccuracy(t *testing.T) {
	const slack = 1e-7
	cache := NewModelCache()
	ctx := context.Background()
	ids := func(m device.Solver, b fettoy.Bias) float64 {
		t.Helper()
		v, err := m.IDS(b)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for _, temp := range paperTemps {
		for _, ef := range paperEFs {
			dev := fettoy.Default()
			dev.T, dev.EF = temp, ef
			direct, err := fettoy.New(dev)
			if err != nil {
				t.Fatal(err)
			}
			own, err := fettoy.New(dev)
			if err != nil {
				t.Fatal(err)
			}
			own.EnableTable(fettoy.TableOptions{})
			shared, _, err := cache.Resolve(ctx, ModelSpec{Family: FamilyReference, T: temp, EF: &ef})
			if err != nil {
				t.Fatal(err)
			}
			var worstOwn, worstShared float64
			for i := range 13 {
				for j := range 13 {
					b := fettoy.Bias{VG: 0.05 * float64(i), VD: 0.05 * float64(j)}
					want := ids(direct, b)
					if want == 0 { //lint:allow floatcmp VD = 0 carries no current to compare against
						continue
					}
					worstOwn = max(worstOwn, math.Abs(ids(own, b)-want)/math.Abs(want))
					worstShared = max(worstShared, math.Abs(ids(shared, b)-want)/math.Abs(want))
				}
			}
			if worstShared > worstOwn+slack {
				t.Errorf("T=%g EF=%g: shared table's worst IDS error %.3g, own table's %.3g", temp, ef, worstShared, worstOwn)
			}
			t.Logf("T=%g EF=%g: worst IDS error against direct quadrature: shared table %.3g, own table %.3g", temp, ef, worstShared, worstOwn)
		}
	}
}

// BenchmarkReferenceWarmup sends the nine reference cells through a
// fresh ModelCache, one iv-point each — the reference third of an
// iv-point set-up. tables/op counts the charge tables it builds.
func BenchmarkReferenceWarmup(b *testing.B) {
	builds := telemetry.Default().Counter(telemetry.KeyFettoyTableBuilds)
	before := builds.Value()
	for i := 0; i < b.N; i++ {
		h := New(Config{Resolver: NewModelCache()}).Handler()
		for _, temp := range paperTemps {
			for _, ef := range paperEFs {
				decodeJob(b, post(b, h, referenceIVBody(temp, ef)))
			}
		}
	}
	b.ReportMetric(float64(builds.Value()-before)/float64(b.N), "tables/op")
}

// BenchmarkResolveColdModel measures a model-cache miss through
// ModelCache.Resolve: every iteration names a never-seen (T, EF),
// alternating model1 and model2, and pays the device, the key,
// fettoy.New, core.Fit and the cache entry. The cache is filled to its
// cap first, so every miss also evicts a model, as under a steady
// stream of cold keys. B/op and allocs/op are a cold request's model
// cost; the model itself is most of it.
func BenchmarkResolveColdModel(b *testing.B) {
	cache := NewModelCache()
	ctx := context.Background()
	families := []string{FamilyModel1, FamilyModel2}
	// Golden-ratio sequences keep every key fresh; the EFs live in one
	// slice so the specs' pointers to them cost the loop nothing.
	efs := make([]float64, maxCachedModels+b.N)
	for i := range efs {
		efs[i] = -0.5 * math.Mod(float64(i)*0.7548776662, 1)
	}
	resolve := func(i int) {
		spec := ModelSpec{Family: families[i%2], T: 150 + 300*math.Mod(float64(i)*0.6180339887, 1), EF: &efs[i]}
		if _, cached, err := cache.Resolve(ctx, spec); err != nil || cached {
			b.Fatalf("key %d: cached %v, err %v", i, cached, err)
		}
	}
	for i := range maxCachedModels {
		resolve(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		resolve(maxCachedModels + i)
	}
}

// TestReferenceTableNodeBudget pins the charge tables the nine paper
// cells' reference models build, as an exact budget: 3 shared tables
// (one per temperature; the three EFs share a band) with 817 nodes in
// all, counted when tables became physics-keyed and unchanged since.
// A change here means the table window, its band or the adaptive
// tabulation moved.
func TestReferenceTableNodeBudget(t *testing.T) {
	cache := NewModelCache()
	ctx := context.Background()
	for _, temp := range paperTemps {
		for _, ef := range paperEFs {
			m, _, err := cache.Resolve(ctx, ModelSpec{Family: FamilyReference, T: temp, EF: &ef})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.(device.ContextBuilder).BuildContext(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	nodes := 0
	for _, tab := range cache.tables {
		nodes += tab.Nodes()
	}
	if len(cache.tables) != 3 || nodes != 817 {
		t.Fatalf("nine paper cells built %d tables with %d nodes, budget 3 tables and 817 nodes", len(cache.tables), nodes)
	}
}
