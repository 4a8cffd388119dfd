// cache.go is the server's model store. Building a model is the
// expensive part of a job — the reference theory's charge-table
// tabulation and the piecewise models' charge-curve fit both sample
// quadrature integrals — and it depends only on (family, device, T,
// EF), so a long-running server builds each description once and
// shares the immutable result across requests. The charge table
// depends on less: (device, T) and an EF band (tableKey), so reference
// models of every EF in one band share one table and its one build.
// Both library model families are safe for concurrent use after
// construction, which is exactly the property the cache relies on.
package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"cntfet/internal/core"
	"cntfet/internal/device"
	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// Resolver turns a wire model description into a ready device model.
// The production implementation is ModelCache; tests substitute fakes
// to steer job latency and failure modes. cached reports whether an
// already-built model was reused — the observability layer turns it
// into the job's cache_hit attribute. ctx scopes the build (a
// cache-miss fit runs under the requesting job's span and deadline).
type Resolver interface {
	Resolve(ctx context.Context, spec ModelSpec) (m device.Solver, cached bool, err error)
}

// cacheEntry serialises the build of one key: the first request holds
// mu while building, later arrivals block on it and then read the
// published model. A failed build publishes nothing and leaves the
// cache, so the next request retries.
type cacheEntry struct {
	mu    sync.Mutex
	model device.Solver
	// built is set once model is published: only such an entry may be
	// evicted, and Len counts them without waiting on a build.
	built atomic.Bool
}

// maxCachedModels caps the entries a ModelCache holds. Every distinct
// (family, device, T, EF) is its own model, so without a cap the cache
// grows with the key space — by one fitted model per request under a
// stream of never-seen keys. At the cap, a new key evicts a built model
// chosen at random (Go's map order), which keeps the hit path free of
// recency bookkeeping.
const maxCachedModels = 1024

// ModelCache is a concurrency-safe keyed store of built models, bounded
// by maxCachedModels, and of the charge tables reference models share,
// bounded by the same cap. The zero value is not ready; use
// NewModelCache.
type ModelCache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	// tables holds each shared charge table, built or not: a table
	// builds lazily, under the first job that reaches it through any
	// model holding it. At the cap a random table is dropped; the
	// models already holding it keep it.
	tables map[tableKey]*fettoy.ChargeTable
}

// NewModelCache returns an empty cache.
func NewModelCache() *ModelCache {
	return &ModelCache{entries: map[cacheKey]*cacheEntry{}, tables: map[tableKey]*fettoy.ChargeTable{}}
}

// Resolve returns the model a spec names, building it on first use.
// Concurrent requests for the same key build once; distinct keys build
// in parallel. Hits and misses are counted on the default telemetry
// registry (server.cache.*), and a cache-miss build runs under its own
// span (server.model_build) carrying the model key, so the request
// that pays the one-time fit cost is visible in its trace.
func (c *ModelCache) Resolve(ctx context.Context, spec ModelSpec) (device.Solver, bool, error) {
	dev, err := spec.device()
	if err != nil {
		return nil, false, err
	}
	return c.resolve(ctx, specCacheKey(spec, dev), dev)
}

// resolve is Resolve for a spec already resolved to its key and device.
func (c *ModelCache) resolve(ctx context.Context, key cacheKey, dev fettoy.Device) (device.Solver, bool, error) {
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		if len(c.entries) >= maxCachedModels {
			c.evictLocked()
		}
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()

	e.mu.Lock()
	defer e.mu.Unlock()
	reg := telemetry.Default()
	if e.model != nil {
		reg.Counter(telemetry.KeyServerCacheHits).Inc()
		return e.model, true, nil
	}
	reg.Counter(telemetry.KeyServerCacheMisses).Inc()
	_, span := telemetry.StartSpan(ctx, telemetry.SpanServerModelBuild)
	if span != nil {
		span.Set(telemetry.String(telemetry.AttrModelKey, key.String()))
	}
	dev.EF = key.ef // -0 and 0 build the one model
	m, err := c.build(key, dev)
	if err != nil {
		span.Set(telemetry.String(telemetry.AttrError, err.Error()))
		span.End()
		c.mu.Lock()
		if c.entries[key] == e {
			delete(c.entries, key)
		}
		c.mu.Unlock()
		return nil, false, err
	}
	span.End()
	e.model = m
	e.built.Store(true)
	return m, false, nil
}

// evictLocked drops one built model; c.mu is held. Entries still
// building are skipped — their builders and waiters hold them — so
// under a burst of concurrent cold keys the cache can briefly exceed
// its cap by the builds in flight.
func (c *ModelCache) evictLocked() {
	for k, e := range c.entries {
		if e.built.Load() {
			delete(c.entries, k)
			telemetry.Default().Counter(telemetry.KeyServerCacheEvictions).Inc()
			return
		}
	}
}

// resolveID resolves an identified spec through res: the ModelCache
// reuses the device and key already resolved, other resolvers (test
// fakes) take the spec.
func resolveID(ctx context.Context, res Resolver, id specID) (device.Solver, bool, error) {
	c, ok := res.(*ModelCache)
	if !ok {
		return res.Resolve(ctx, *id.spec)
	}
	if id.err != nil {
		return nil, false, id.err
	}
	return c.resolve(ctx, id.key, id.dev)
}

// Len reports how many models are built and cached.
func (c *ModelCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.entries {
		if e.built.Load() {
			n++
		}
	}
	return n
}

// build constructs the model key names. The reference model shares
// its tableKey's charge table, so the tabulation — built lazily under
// the first job's context via device.ContextBuilder — is paid once per
// (device, T, EF band) and reused by every later request, of any EF in
// the band, instead of re-integrating per solve.
func (c *ModelCache) build(key cacheKey, dev fettoy.Device) (device.Solver, error) {
	switch key.family {
	case FamilyReference:
		ref, err := fettoy.New(dev)
		if err != nil {
			return nil, err
		}
		if err := ref.ShareTable(c.table(key.tableKey(), ref)); err != nil {
			return nil, err
		}
		return ref, nil
	case FamilyModel1, FamilyModel2:
		ref, err := fettoy.New(dev)
		if err != nil {
			return nil, err
		}
		spec := core.Model2Spec()
		if key.family == FamilyModel1 {
			spec = core.Model1Spec()
		}
		return core.Fit(ref, spec, core.FitOptions{})
	}
	return nil, fmt.Errorf("unknown model family %q (want %q, %q or %q)",
		key.family, FamilyReference, FamilyModel1, FamilyModel2)
}

// table returns the charge table tk names, creating it unbuilt over
// ref's state density when the cache holds none.
func (c *ModelCache) table(tk tableKey, ref *fettoy.Model) *fettoy.ChargeTable {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.tables[tk]
	if t == nil {
		if len(c.tables) >= maxCachedModels {
			for k := range c.tables {
				delete(c.tables, k)
				break
			}
		}
		t = fettoy.NewChargeTable(ref, fettoy.TableOptions{UMin: tk.umin, UMax: tk.umax})
		c.tables[tk] = t
	}
	return t
}
