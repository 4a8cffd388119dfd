package server

import (
	"context"
	"encoding/json"
	"math"
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
	short := New(Config{Timeout: 5 * time.Microsecond, Resolver: cache})
	w := post(t, short.Handler(), body)
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("timed-out reference job answered %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Class != "canceled" {
		t.Fatalf("499 body not classified canceled: %s", w.Body)
	}
	// The job's abandoned flight may still be unwinding; once it has
	// gone, its build has either aborted or published.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		short.flights.mu.Lock()
		n := len(short.flights.flights)
		short.flights.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("canceled job's flight never finished")
		}
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
