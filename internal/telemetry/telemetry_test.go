package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterTimerBasics(t *testing.T) {
	r := NewRegistry(true)
	c := r.Counter("a.b")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("a.b") != c {
		t.Fatal("get-or-create returned a different handle")
	}
	tm := r.Timer("a.t")
	tm.Observe(3 * time.Millisecond)
	tm.Observe(5 * time.Millisecond)
	if tm.Count() != 2 || tm.Total() != 8*time.Millisecond || tm.Mean() != 4*time.Millisecond {
		t.Fatalf("timer stats = %d %s %s", tm.Count(), tm.Total(), tm.Mean())
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry(true)
	g := r.Gauge("replica.healthy")
	g.Set(1)
	g.Add(2)
	g.Add(-3)
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	g.Set(1)
	if r.Gauge("replica.healthy") != g {
		t.Fatal("get-or-create returned a different handle")
	}
	if got := r.Snapshot().Gauges["replica.healthy"]; got != 1 {
		t.Fatalf("snapshot gauge = %d, want 1", got)
	}
	r.Reset()
	if g.Value() != 0 {
		t.Fatal("reset did not zero gauge")
	}
	g.Set(5)
	if r.Gauge("replica.healthy").Value() != 5 {
		t.Fatal("handle detached after reset")
	}
	var buf bytes.Buffer
	if err := r.WriteText(&buf, "# "); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# replica.healthy 5") {
		t.Fatalf("text export missing gauge:\n%s", buf.String())
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var tm *Timer
	var h *Histogram
	var tr *Tracer
	c.Inc()
	c.Add(3)
	g.Set(2)
	g.Add(1)
	tm.Observe(time.Second)
	tm.Start()()
	h.Observe(1)
	tr.Emit("x", Int("k", 1))
	if c.Value() != 0 || g.Value() != 0 || tm.Count() != 0 || h.Count() != 0 || tr.Enabled() {
		t.Fatal("nil instruments must be inert")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry(true)
	h := r.Histogram("iters", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	bounds, counts := h.Buckets()
	if len(bounds) != 3 || len(counts) != 4 {
		t.Fatalf("shape %d/%d", len(bounds), len(counts))
	}
	// SearchFloat64s: value v lands in the first bucket with bound >= v.
	want := []int64{2, 1, 1, 1}
	for i, w := range want {
		if counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all %v)", i, counts[i], w, counts)
		}
	}
	if h.Count() != 5 || h.Sum() != 106 {
		t.Fatalf("count=%d sum=%g", h.Count(), h.Sum())
	}
}

// TestRegistryConcurrent hammers get-or-create and updates from many
// goroutines; run with -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry(true)
	const workers = 16
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Timer("t.shared").Observe(time.Microsecond)
				r.Histogram("h.shared", []float64{1, 10}).Observe(float64(i % 20))
				if i%100 == 0 {
					_ = r.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Timer("t.shared").Count(); got != workers*perWorker {
		t.Fatalf("timer count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("h.shared", nil).Count(); got != workers*perWorker {
		t.Fatalf("hist count = %d, want %d", got, workers*perWorker)
	}
}

func TestCounterMarkDelta(t *testing.T) {
	r := NewRegistry(true)
	r.Counter("a").Add(3)
	r.Counter("idle").Add(9)
	mark := r.CounterMark(nil)
	r.Counter("a").Add(2)
	r.Counter("late").Add(4) // created after the mark: counts from 0
	d := r.CounterDelta(mark)
	want := map[string]int64{"a": 2, "late": 4}
	if len(d) != len(want) {
		t.Fatalf("delta = %v, want %v", d, want)
	}
	for k, v := range want {
		if d[k] != v {
			t.Fatalf("delta[%q] = %d, want %d (all %v)", k, d[k], v, d)
		}
	}
	if d := r.CounterDelta(r.CounterMark(mark)); d == nil || len(d) != 0 {
		t.Fatalf("delta with no movement = %v, want empty non-nil map", d)
	}
}

// TestCounterMarkConcurrent hammers counter creation against marks and
// deltas; run with -race. Creators add brand-new counters and bump a
// shared one while observers diff continuously: no observed movement
// may be negative, and a delta over the whole run must account for
// every increment, counters created after the mark included.
func TestCounterMarkConcurrent(t *testing.T) {
	r := NewRegistry(true)
	r.Counter("shared")
	start := r.CounterMark(nil)
	const creators, observers, perCreator = 4, 2, 100
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var obs sync.WaitGroup
	for o := 0; o < observers; o++ {
		obs.Add(1)
		go func() {
			defer obs.Done()
			var mark []int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				mark = r.CounterMark(mark)
				for k, v := range r.CounterDelta(mark) {
					if v < 0 {
						t.Errorf("counter %q moved backwards: %d", k, v)
						return
					}
				}
			}
		}()
	}
	for w := 0; w < creators; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCreator; i++ {
				r.Counter(fmt.Sprintf("c.%d.%d", w, i)).Add(int64(i + 1))
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	close(stop)
	obs.Wait()
	d := r.CounterDelta(start)
	if got := d["shared"]; got != creators*perCreator {
		t.Fatalf("shared delta = %d, want %d", got, creators*perCreator)
	}
	for w := 0; w < creators; w++ {
		for i := 0; i < perCreator; i++ {
			k := fmt.Sprintf("c.%d.%d", w, i)
			if d[k] != int64(i+1) {
				t.Fatalf("late counter %q delta = %d, want %d", k, d[k], i+1)
			}
		}
	}
	if len(d) != creators*perCreator+1 {
		t.Fatalf("delta has %d entries, want %d", len(d), creators*perCreator+1)
	}
}

// TestCounterMarkZeroAlloc pins the per-job mark at zero allocations
// once the buffer has capacity, with the registry gate on or off.
func TestCounterMarkZeroAlloc(t *testing.T) {
	for _, on := range []bool{true, false} {
		r := NewRegistry(on)
		for i := 0; i < 40; i++ {
			r.Counter(fmt.Sprintf("k%d", i)).Inc()
		}
		buf := make([]int64, 0, 64)
		if n := testing.AllocsPerRun(100, func() { buf = r.CounterMark(buf) }); n != 0 {
			t.Errorf("enabled=%v: CounterMark allocates %.1f times per call, want 0", on, n)
		}
		if len(buf) != 40 {
			t.Fatalf("mark has %d values, want 40", len(buf))
		}
	}
}

func TestResetKeepsHandles(t *testing.T) {
	r := NewRegistry(true)
	c := r.Counter("x")
	c.Add(7)
	tm := r.Timer("y")
	tm.Observe(time.Second)
	r.Reset()
	if c.Value() != 0 || tm.Count() != 0 {
		t.Fatal("reset did not zero values")
	}
	c.Inc()
	if r.Counter("x").Value() != 1 {
		t.Fatal("handle detached after reset")
	}
}

func TestSnapshotJSON(t *testing.T) {
	r := NewRegistry(true)
	r.Counter("fettoy.newton_iters").Add(42)
	r.Timer("solve").Observe(time.Millisecond)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("snapshot not valid JSON: %v\n%s", err, buf.String())
	}
	if s.Counters["fettoy.newton_iters"] != 42 {
		t.Fatalf("roundtrip lost counter: %+v", s)
	}
	buf.Reset()
	if err := r.WriteText(&buf, "# "); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "# fettoy.newton_iters 42") {
		t.Fatalf("text export missing counter:\n%s", buf.String())
	}
}

func TestTraceRingAndExport(t *testing.T) {
	tr := NewTracer(4)
	tr.Emit("step", Int("iter", -1)) // disabled: not recorded
	tr.SetEnabled(true)
	for i := 0; i < 10; i++ {
		tr.Emit("step", Float(AttrT, float64(i)), Int("iter", int64(i)), Float("res", 0.5))
	}
	evs := tr.Spans()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	if evs[0].Attrs["iter"] != int64(6) || evs[3].Attrs["iter"] != int64(9) {
		t.Fatalf("ring kept wrong window: %+v", evs)
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped = %d, want 6", tr.Dropped())
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// An event line is kind plus attrs: no IDs, no wall clock.
	first, _, _ := strings.Cut(buf.String(), "\n")
	if want := `{"kind":"step","attrs":{"iter":6,"res":0.5,"t":6}}`; first != want {
		t.Fatalf("event line %s, want %s", first, want)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var ev SpanData
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		if ev.Kind != "step" || ev.Attrs["res"] != 0.5 || ev.Attrs[AttrT] != float64(lines+6) {
			t.Fatalf("bad event %+v", ev)
		}
		lines++
	}
	if lines != 4 {
		t.Fatalf("exported %d lines, want 4", lines)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTracer(64)
	tr.SetEnabled(true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr.Emit("ev", Float(AttrT, float64(i)), Int("w", int64(i)))
			}
		}()
	}
	wg.Wait()
	if tr.Len() != 64 {
		t.Fatalf("len = %d, want 64", tr.Len())
	}
	if got := tr.Dropped() + int64(tr.Len()); got != 8*500 {
		t.Fatalf("retained+dropped = %d, want %d", got, 8*500)
	}
}

func TestDefaultRegistryGate(t *testing.T) {
	if On() {
		t.Fatal("default registry must start disabled")
	}
	Enable()
	defer Disable()
	if !On() {
		t.Fatal("Enable did not flip the gate")
	}
}
