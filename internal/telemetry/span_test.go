package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanParenting checks trace propagation through contexts: a child
// span joins its parent's trace, records the parent's span ID, and the
// context accessors see the innermost span.
func TestSpanParenting(t *testing.T) {
	tr := NewTracer(16)
	tr.SetEnabled(true)

	ctx := context.Background()
	if id := TraceIDFrom(ctx); id != "" {
		t.Fatalf("empty context carries trace %q", id)
	}
	ctx1, parent := tr.StartSpan(ctx, SpanServerRequest)
	ctx2, child := tr.StartSpan(ctx1, SpanEngineJob)

	if parent.TraceID() == "" || parent.SpanID() == "" {
		t.Fatalf("parent IDs empty: %q %q", parent.TraceID(), parent.SpanID())
	}
	if child.TraceID() != parent.TraceID() {
		t.Fatalf("child trace %q != parent trace %q", child.TraceID(), parent.TraceID())
	}
	if child.SpanID() == parent.SpanID() {
		t.Fatalf("child reused parent span ID %q", parent.SpanID())
	}
	if got := SpanFrom(ctx2); got != child {
		t.Fatalf("SpanFrom(ctx2) = %v, want the child span", got)
	}
	if got := TraceIDFrom(ctx2); got != parent.TraceID() {
		t.Fatalf("TraceIDFrom(ctx2) = %q, want %q", got, parent.TraceID())
	}

	child.Set(Int(AttrPoints, 7), Bool(AttrCacheHit, true))
	child.SetMetrics(map[string]int64{KeyFettoyNewtonIters: 42})
	child.End()
	child.End() // idempotent
	parent.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("ring holds %d spans, want 2", len(spans))
	}
	// Completion order: child first.
	if spans[0].Kind != SpanEngineJob || spans[1].Kind != SpanServerRequest {
		t.Fatalf("span order wrong: %q, %q", spans[0].Kind, spans[1].Kind)
	}
	if spans[0].Parent != parent.SpanID() {
		t.Fatalf("child parent %q, want %q", spans[0].Parent, parent.SpanID())
	}
	if got := spans[0].Attrs[AttrPoints]; got != int64(7) {
		t.Fatalf("attr points = %v (%T), want int64 7", got, got)
	}
	if got := spans[0].Metrics[KeyFettoyNewtonIters]; got != 42 {
		t.Fatalf("metrics iters = %d, want 42", got)
	}
}

// TestSpanJSONLine pins a span's WriteJSON line byte for byte: the
// omitempty/omitzero tags that let events drop IDs and wall clock must
// leave every span field where it was.
func TestSpanJSONLine(t *testing.T) {
	tr := NewTracer(4)
	tr.record(SpanData{
		TraceID: "00000001000000aa", SpanID: "00000001000000ab", Parent: "00000001000000a9",
		Kind: SpanEngineJob, Start: time.Date(2026, 1, 2, 3, 4, 5, 6000, time.UTC), DurNS: 1234,
		Attrs:   map[string]any{AttrJobKind: "family-sweep", AttrPoints: int64(61), AttrVG: 0.55, AttrCacheHit: true},
		Metrics: map[string]int64{KeyFettoyNewtonIters: 42},
	})
	tr.record(SpanData{
		TraceID: "00000001000000aa", SpanID: "00000001000000ac", Kind: SpanServerRequest,
		Start: time.Date(2026, 1, 2, 3, 4, 5, 0, time.FixedZone("x", 3600)), DurNS: 7,
	})
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	const want = `{"trace":"00000001000000aa","span":"00000001000000ab","parent":"00000001000000a9","kind":"engine.job","ts":"2026-01-02T03:04:05.000006Z","dur_ns":1234,"attrs":{"cache_hit":true,"job_kind":"family-sweep","points":61,"vg":0.55},"metrics":{"fettoy.newton_iters":42}}
{"trace":"00000001000000aa","span":"00000001000000ac","kind":"server.request","ts":"2026-01-02T03:04:05+01:00","dur_ns":7}
`
	if got := buf.String(); got != want {
		t.Fatalf("span lines\n%s\nwant\n%s", got, want)
	}
}

// TestSpanDisabledIsNil checks the no-op contract tracing-off call
// sites rely on: StartSpan returns the context unchanged and a nil
// span whose every method is safe.
func TestSpanDisabledIsNil(t *testing.T) {
	tr := NewTracer(4)
	ctx := context.Background()
	ctx2, sp := tr.StartSpan(ctx, SpanSweepChunk)
	if sp != nil {
		t.Fatalf("disabled StartSpan returned a live span")
	}
	if ctx2 != ctx {
		t.Fatalf("disabled StartSpan rewrapped the context")
	}
	sp.Set(Int(AttrPoints, 1))
	sp.SetMetrics(map[string]int64{KeySweepPoints: 1})
	if sp.TraceID() != "" || sp.SpanID() != "" {
		t.Fatalf("nil span has IDs")
	}
	sp.End()
	if tr.Len() != 0 {
		t.Fatalf("disabled tracer recorded %d spans", tr.Len())
	}
}

// TestSpanHammer runs many goroutines through StartSpan/Set/End
// against a small ring with a logger attached, and checks the
// invariants the -race suite guards: no span record is lost or
// duplicated on the log path, every span ID is unique, the ring stays
// bounded, and the drop counter accounts exactly for the overflow.
func TestSpanHammer(t *testing.T) {
	const goroutines = 8
	const perG = 200
	const capacity = 64

	tr := NewTracer(capacity)
	tr.SetEnabled(true)
	var buf bytes.Buffer
	tr.SetLogger(NewLogger(&buf))

	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx, sp := tr.StartSpan(context.Background(), SpanSweepChunk)
				sp.Set(Int(AttrWorker, int64(g)), Int(AttrPoints, int64(i)))
				_, child := tr.StartSpan(ctx, SpanFettoyTableBuild)
				child.End()
				sp.End()
			}
		}(g)
	}
	wg.Wait()

	const total = goroutines * perG * 2 // parent + child per iteration
	if got := tr.Len(); got != capacity {
		t.Fatalf("ring holds %d spans, want full capacity %d", got, capacity)
	}
	if got := tr.Dropped(); got != total-capacity {
		t.Fatalf("dropped = %d, want %d", got, total-capacity)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != total {
		t.Fatalf("log carries %d span records, want %d", len(lines), total)
	}
	seen := make(map[string]bool, total)
	for _, line := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad span record %q: %v", line, err)
		}
		if rec["event"] != LogEventSpan {
			t.Fatalf("unexpected event %v", rec["event"])
		}
		id, _ := rec[FieldSpan].(string)
		if id == "" || seen[id] {
			t.Fatalf("span ID %q missing or duplicated", id)
		}
		seen[id] = true
	}
}

// TestLoggerHammer checks the NDJSON logger under concurrency: every
// record arrives as exactly one valid JSON line, none lost, none
// interleaved.
func TestLoggerHammer(t *testing.T) {
	const goroutines = 8
	const perG = 500

	var buf bytes.Buffer
	l := NewLogger(&buf)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				l.Log(LogEventAccess,
					Int(AttrWorker, int64(g)),
					Int(AttrStatus, int64(i)),
					String(AttrPath, "/v1/jobs"),
				)
			}
		}(g)
	}
	wg.Wait()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != goroutines*perG {
		t.Fatalf("log carries %d records, want %d", len(lines), goroutines*perG)
	}
	counts := make(map[int64]int, goroutines)
	for _, line := range lines {
		var rec struct {
			TS     string `json:"ts"`
			Event  string `json:"event"`
			Worker int64  `json:"worker"`
			Status int64  `json:"status"`
			Path   string `json:"path"`
		}
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad record %q: %v", line, err)
		}
		if rec.Event != LogEventAccess || rec.TS == "" || rec.Path != "/v1/jobs" {
			t.Fatalf("record fields wrong: %q", line)
		}
		counts[rec.Worker]++
	}
	for g := int64(0); g < goroutines; g++ {
		if counts[g] != perG {
			t.Fatalf("worker %d wrote %d records, want %d", g, counts[g], perG)
		}
	}
}

// TestLoggerNonFinite checks that non-finite floats stay valid JSON.
func TestLoggerNonFinite(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf)
	l.Log(LogEventJob, Float(AttrVG, math.NaN()), Float(AttrError, math.Inf(1)))
	var rec map[string]any
	if err := json.Unmarshal(bytes.TrimSpace(buf.Bytes()), &rec); err != nil {
		t.Fatalf("non-finite floats broke JSON: %v: %s", err, buf.String())
	}
}

// BenchmarkStartSpanDisabled pins the disabled-tracing cost the warm
// paths pay: one atomic load and a nil-method chain, no allocation.
func BenchmarkStartSpanDisabled(b *testing.B) {
	tr := NewTracer(64)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := tr.StartSpan(ctx, SpanSweepChunk)
		sp.Set(Int(AttrPoints, 1))
		sp.End()
	}
}

// BenchmarkStartSpanEnabled is the contrast: the full mint-set-record
// cost a traced request pays per span.
func BenchmarkStartSpanEnabled(b *testing.B) {
	tr := NewTracer(64)
	tr.SetEnabled(true)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, sp := tr.StartSpan(ctx, SpanSweepChunk)
		sp.Set(Int(AttrPoints, 1))
		sp.End()
	}
}
