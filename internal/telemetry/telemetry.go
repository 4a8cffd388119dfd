// Package telemetry is the dependency-free observability substrate of
// the library: a concurrency-safe registry of named counters, timers
// and histograms, plus a ring-buffered structured solve trace (see
// trace.go). Every solver layer — the FETToy-style reference theory,
// the piecewise closed-form solve, the MNA circuit engine, the sweep
// workers — records its work here, so speedup claims can be correlated
// with actual work reduction (quadrature points, Newton iterations,
// LU factorizations) rather than wall-clock alone.
//
// Cost model: instruments are uncontended atomic updates (a few ns).
// Call sites on hot paths that run millions of times per second (the
// piecewise closed-form solve) additionally gate on On(), a single
// atomic bool load, so disabled telemetry stays below noise. Cold
// paths (one quadrature integral costs ~10 µs) record unconditionally
// so diagnostics like fettoy.Model.Counters keep working with
// telemetry off.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing event count. The zero value is
// ready to use; a nil Counter ignores updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// reset zeroes the counter in place, keeping handles valid.
func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an instantaneous level — replica health, queue depth,
// in-flight occupancy — that moves both ways, unlike a Counter. The
// zero value is ready to use; a nil Gauge ignores updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge's value.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add moves the gauge by n (negative n moves it down).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// reset zeroes the gauge in place, keeping handles valid.
func (g *Gauge) reset() { g.v.Store(0) }

// Timer accumulates durations of an operation. The zero value is ready
// to use; a nil Timer ignores updates.
type Timer struct {
	n  atomic.Int64
	ns atomic.Int64
}

// Observe records one operation of duration d.
func (t *Timer) Observe(d time.Duration) {
	if t != nil {
		t.n.Add(1)
		t.ns.Add(int64(d))
	}
}

// Start begins timing an operation; the returned stop function records
// the elapsed time when called.
func (t *Timer) Start() func() {
	if t == nil {
		return func() {}
	}
	begin := time.Now()
	return func() { t.Observe(time.Since(begin)) }
}

// Count returns how many durations were observed.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.n.Load()
}

// Total returns the accumulated duration.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.ns.Load())
}

// Mean returns the average observed duration (0 when empty).
func (t *Timer) Mean() time.Duration {
	n := t.Count()
	if n == 0 {
		return 0
	}
	return t.Total() / time.Duration(n)
}

func (t *Timer) reset() { t.n.Store(0); t.ns.Store(0) }

// Histogram counts observations into fixed buckets with upper bounds
// bounds[i]; values above the last bound land in an overflow bucket.
// Sum and count are tracked exactly so means survive bucketing. A nil
// Histogram ignores updates.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is overflow
	sum    atomic.Uint64  // float64 bits, CAS-updated
	n      atomic.Int64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.n.Add(1)
	for {
		old := h.sum.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the exact sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Buckets returns the bucket upper bounds and the per-bucket counts
// (one extra trailing count for the overflow bucket).
func (h *Histogram) Buckets() (bounds []float64, counts []int64) {
	bounds = append([]float64(nil), h.bounds...)
	counts = make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return bounds, counts
}

func (h *Histogram) reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.sum.Store(0)
	h.n.Store(0)
}

// Registry is a named collection of instruments. Get-or-create lookups
// return stable handles: Reset zeroes values in place, so handles
// cached at construction time stay valid for the process lifetime.
type Registry struct {
	enabled atomic.Bool

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	timers   map[string]*Timer
	hists    map[string]*Histogram

	// counterList and counterNames hold the counters in creation order —
	// the index space of CounterMark. Only Counter's create branch
	// appends, so an index, once handed out, names the same counter for
	// the registry's lifetime.
	counterList  []*Counter
	counterNames []string
}

// NewRegistry returns an empty registry with the given enabled state.
func NewRegistry(enabled bool) *Registry {
	r := &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		timers:   map[string]*Timer{},
		hists:    map[string]*Histogram{},
	}
	r.enabled.Store(enabled)
	return r
}

// defaultRegistry is the process-wide registry; disabled by default so
// the piecewise hot path pays nothing unless a CLI or test opts in.
var defaultRegistry = NewRegistry(false)

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// On reports whether the default registry is enabled — the single
// branch hot paths gate on.
func On() bool { return defaultRegistry.enabled.Load() }

// Enable turns the default registry on.
func Enable() { defaultRegistry.SetEnabled(true) }

// Disable turns the default registry off.
func Disable() { defaultRegistry.SetEnabled(false) }

// SetEnabled flips the registry's enabled gate.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports the registry's gate state.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
		r.counterList = append(r.counterList, c)
		r.counterNames = append(r.counterNames, name)
	}
	return c
}

// CounterMark copies every counter's current value into dst[:0], in
// creation order, and returns the extended slice. It is the cheap
// "before" half of a per-job counter diff: no maps, no gauges, timers
// or histograms, and no allocation once dst has the capacity. Pair it
// with CounterDelta.
func (r *Registry) CounterMark(dst []int64) []int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	dst = dst[:0]
	for _, c := range r.counterList {
		dst = append(dst, c.Value())
	}
	return dst
}

// CounterDelta returns the non-zero counter movements since mark (a
// CounterMark result), keyed by counter name, leaving out counters
// whose names start with any of the exclude prefixes. A counter
// created after the mark counts from zero. The map is never nil.
func (r *Registry) CounterDelta(mark []int64, exclude ...string) map[string]int64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d := make(map[string]int64)
	for i, c := range r.counterList {
		v := c.Value()
		if i < len(mark) {
			v -= mark[i]
		}
		if v != 0 && !hasAnyPrefix(r.counterNames[i], exclude) {
			d[r.counterNames[i]] = v
		}
	}
	return d
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Timer returns the named timer, creating it on first use.
func (r *Registry) Timer(name string) *Timer {
	r.mu.RLock()
	t := r.timers[name]
	r.mu.RUnlock()
	if t != nil {
		return t
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if t = r.timers[name]; t == nil {
		t = &Timer{}
		r.timers[name] = t
	}
	return t
}

// Histogram returns the named histogram, creating it with the given
// bucket upper bounds on first use (later calls keep the original
// buckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = newHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every instrument in place. Cached handles stay valid.
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, t := range r.timers {
		t.reset()
	}
	for _, h := range r.hists {
		h.reset()
	}
}

// TimerStat is the exported view of a Timer.
type TimerStat struct {
	Count   int64   `json:"count"`
	TotalNS int64   `json:"total_ns"`
	MeanNS  float64 `json:"mean_ns"`
}

// HistStat is the exported view of a Histogram.
type HistStat struct {
	Count   int64     `json:"count"`
	Sum     float64   `json:"sum"`
	Bounds  []float64 `json:"bounds"`
	Buckets []int64   `json:"buckets"`
}

// Snapshot is a point-in-time JSON-ready copy of a registry. Counters
// with value zero are included, so the schema is stable across runs.
type Snapshot struct {
	Counters   map[string]int64     `json:"counters"`
	Gauges     map[string]int64     `json:"gauges,omitempty"`
	Timers     map[string]TimerStat `json:"timers,omitempty"`
	Histograms map[string]HistStat  `json:"histograms,omitempty"`
}

// Snapshot copies the current instrument values.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{Counters: map[string]int64{}}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	if len(r.gauges) > 0 {
		s.Gauges = map[string]int64{}
		for name, g := range r.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(r.timers) > 0 {
		s.Timers = map[string]TimerStat{}
		for name, t := range r.timers {
			st := TimerStat{Count: t.Count(), TotalNS: int64(t.Total())}
			if st.Count > 0 {
				st.MeanNS = float64(st.TotalNS) / float64(st.Count)
			}
			s.Timers[name] = st
		}
	}
	if len(r.hists) > 0 {
		s.Histograms = map[string]HistStat{}
		for name, h := range r.hists {
			bounds, counts := h.Buckets()
			s.Histograms[name] = HistStat{
				Count: h.Count(), Sum: h.Sum(), Bounds: bounds, Buckets: counts,
			}
		}
	}
	return s
}

// WriteJSON writes the snapshot as one indented JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText writes the snapshot as sorted "name value" lines with the
// given per-line prefix (use "# " or "* " to embed in CSV/deck output).
func (r *Registry) WriteText(w io.Writer, prefix string) error {
	s := r.Snapshot()
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", prefix, n, s.Counters[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "%s%s %d\n", prefix, n, s.Gauges[n]); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Timers {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		t := s.Timers[n]
		if _, err := fmt.Fprintf(w, "%s%s count=%d total=%s mean=%s\n",
			prefix, n, t.Count,
			time.Duration(t.TotalNS), time.Duration(t.MeanNS)); err != nil {
			return err
		}
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		if _, err := fmt.Fprintf(w, "%s%s count=%d sum=%g buckets=%v le=%v\n",
			prefix, n, h.Count, h.Sum, h.Buckets, h.Bounds); err != nil {
			return err
		}
	}
	return nil
}
