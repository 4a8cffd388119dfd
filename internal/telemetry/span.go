// span.go is the request-scoped half of the telemetry package: a
// stdlib-only span tracer. Where the Registry aggregates work
// process-wide (how many Newton iterations since start?), spans
// attribute work to one request (how many Newton iterations did THIS
// job pay, and inside which chunk of which sweep?). StartSpan mints
// trace/span IDs, propagates them through context.Context, and on End
// records the span — duration plus typed attributes — into a bounded
// in-memory ring (served by /debug/trace and the CLIs' -trace output)
// and, when a Logger is attached, into the structured NDJSON log as
// one "span" record. The same ring takes solver events (Tracer.Emit:
// one Newton iteration, one transient step), which the CLIs' -trace
// flags and the netlist ".options trace" directive export.
//
// Cost model: tracing is off by default. A disabled StartSpan is one
// atomic load returning a nil *Span whose methods no-op, so the sweep
// chunk loop and other warm paths can hold spans unconditionally; the
// disabled-overhead benchmark (span_test.go) pins this near zero.
// Enabled spans allocate (ID formatting, context values) and are meant
// for request-rate paths — per HTTP request, per job, per sweep chunk,
// per table build — not per solve. Solver events are per solve or per
// iteration, so their call sites check Enabled before assembling
// fields, and only a tracer a caller enabled for its own run gets them.
package telemetry

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// idPrefix distinguishes processes (replicas) in merged logs: IDs are
// "<prefix><counter>" in hex, so within one process the atomic counter
// alone guarantees uniqueness and across processes the random prefix
// keeps collisions unlikely.
var idPrefix = func() uint32 {
	var b [4]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Degrade to counter-only uniqueness (still correct within one
		// process, which is what the hammer tests assert).
		return 0
	}
	return binary.BigEndian.Uint32(b[:])
}()

var idSeq atomic.Uint64

// newID mints a process-unique 16-hex-digit identifier.
func newID() string {
	return fmt.Sprintf("%08x%08x", idPrefix, uint32(idSeq.Add(1)))
}

// SpanData is the immutable record of one completed span or solver
// event — the unit the ring retains, /debug/trace serves, and the
// NDJSON log encodes. An event (Tracer.Emit) carries only Kind and
// Attrs: no IDs and no wall clock, so solver logs stay deterministic
// and diffable, and the ring's order is their sequence.
type SpanData struct {
	TraceID string `json:"trace,omitempty"`
	SpanID  string `json:"span,omitempty"`
	Parent  string `json:"parent,omitempty"`
	Kind    string `json:"kind"`
	// Start is the wall-clock span start; DurNS the duration in
	// nanoseconds.
	Start time.Time `json:"ts,omitzero"`
	DurNS int64     `json:"dur_ns,omitzero"`
	// Attrs are the typed attributes set with Span.Set (values are
	// string, int64, float64 or bool). Metrics are per-span telemetry
	// counter deltas attached with Span.SetMetrics — the engine feeds
	// its per-job deltas here, turning process-global counters into
	// request-scoped cost attribution.
	Attrs   map[string]any   `json:"attrs,omitempty"`
	Metrics map[string]int64 `json:"metrics,omitempty"`
}

// Span is one in-flight operation. A nil *Span (what StartSpan returns
// when tracing is disabled) ignores all method calls, so call sites
// never branch on the tracing state. Set/SetMetrics/End are safe for
// concurrent use, though a span normally belongs to one goroutine.
type Span struct {
	tracer *Tracer
	mu     sync.Mutex
	data   SpanData
	start  time.Time
	ended  bool
}

// Set attaches typed attributes (built with the String/Int/Float/Bool/
// Dur field constructors; keys come from keys.go like every other
// instrument name).
func (s *Span) Set(fields ...Field) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]any, len(fields))
	}
	for _, f := range fields {
		s.data.Attrs[f.key] = f.value()
	}
}

// SetMetrics attaches per-span telemetry counter deltas (instrument
// name -> delta). The map is stored as given; callers pass freshly
// built delta maps (engine.Result.Metrics) and must not mutate them
// afterwards.
func (s *Span) SetMetrics(deltas map[string]int64) {
	if s == nil || len(deltas) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.data.Metrics = deltas
}

// TraceID returns the span's trace identifier ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// SpanID returns the span's own identifier ("" on a nil span).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}

// End completes the span: the duration is fixed, the record enters the
// tracer's ring, and an attached logger gets one "span" NDJSON record.
// A second End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.DurNS = int64(time.Since(s.start))
	data := s.data
	s.mu.Unlock()
	s.tracer.record(data)
}

// spanKey carries the current *Span through a context.
type spanKey struct{}

// SpanFrom returns the context's current span, or nil (a valid no-op
// span) when the context carries none.
func SpanFrom(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// TraceIDFrom returns the trace ID the context carries, or "".
func TraceIDFrom(ctx context.Context) string { return SpanFrom(ctx).TraceID() }

// Tracer owns the tracing gate, the bounded ring of completed spans
// and solver events, and the optional structured-log sink. The zero
// value is not ready; use NewTracer or DefaultTracer. A nil *Tracer is
// a valid no-op event sink: Enabled reports false and Emit does
// nothing, so solvers hold one unconditionally.
type Tracer struct {
	enabled atomic.Bool
	logger  atomic.Pointer[Logger]

	mu    sync.Mutex
	spans ring[SpanData]
}

// DefaultSpanCapacity is the default tracer's ring size.
const DefaultSpanCapacity = 2048

// NewTracer returns a disabled tracer retaining at most capacity
// completed spans and events (minimum 1). When full, the oldest are
// overwritten and counted as dropped — a long transient keeps its
// tail, which is where convergence trouble shows.
func NewTracer(capacity int) *Tracer {
	return &Tracer{spans: newRing[SpanData](capacity)}
}

// defaultTracer is the process-wide tracer, disabled by default like
// the default registry.
var defaultTracer = NewTracer(DefaultSpanCapacity)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

// StartSpan starts a span on the default tracer; see Tracer.StartSpan.
func StartSpan(ctx context.Context, kind string) (context.Context, *Span) {
	return defaultTracer.StartSpan(ctx, kind)
}

// SetEnabled flips the tracing gate.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports the tracing gate state (false on a nil tracer);
// callers skip assembling event fields when it is off.
func (t *Tracer) Enabled() bool { return t != nil && t.enabled.Load() }

// Emit records one solver event of the given kind (a Kind* constant
// from keys.go) with typed attributes built by the Field constructors.
// Events carrying a simulation time put it under AttrT. Emit is a
// no-op while the tracer is disabled or nil.
func (t *Tracer) Emit(kind string, fields ...Field) {
	if !t.Enabled() {
		return
	}
	d := SpanData{Kind: kind, Attrs: make(map[string]any, len(fields))}
	for _, f := range fields {
		d.Attrs[f.key] = f.value()
	}
	t.record(d)
}

// SetLogger attaches (or, with nil, detaches) the structured log every
// completed span is written to as a "span" record.
func (t *Tracer) SetLogger(l *Logger) { t.logger.Store(l) }

// StartSpan begins a span of the given kind (a Span* constant from
// keys.go). When the context already carries a span, the new one joins
// its trace as a child; otherwise a fresh trace ID is minted. The
// returned context carries the new span for callees; the returned
// *Span is nil — ignoring all calls — while the tracer is disabled.
func (t *Tracer) StartSpan(ctx context.Context, kind string) (context.Context, *Span) {
	if t == nil || !t.enabled.Load() {
		return ctx, nil
	}
	if ctx == nil {
		// Mirror engine.Run's guard: sweep helpers tolerate nil contexts.
		ctx = context.Background() //lint:allow ctxpropagate documented nil-context guard, not a root context
	}
	s := &Span{tracer: t, start: time.Now()}
	s.data.Kind = kind
	s.data.Start = s.start
	s.data.SpanID = newID()
	if parent := SpanFrom(ctx); parent != nil {
		s.data.TraceID = parent.data.TraceID
		s.data.Parent = parent.data.SpanID
	} else {
		s.data.TraceID = newID()
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// record stores one completed span or event in the ring and forwards
// it to the attached logger, if any.
func (t *Tracer) record(data SpanData) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans.push(data)
	t.mu.Unlock()
	if l := t.logger.Load(); l != nil {
		l.Log(LogEventSpan, spanFields(data)...)
	}
}

// spanFields flattens a span record into structured-log fields.
func spanFields(d SpanData) []Field {
	fields := make([]Field, 0, 6+len(d.Attrs)+len(d.Metrics))
	fields = append(fields,
		String(FieldTrace, d.TraceID),
		String(FieldSpan, d.SpanID),
	)
	if d.Parent != "" {
		fields = append(fields, String(FieldParent, d.Parent))
	}
	fields = append(fields,
		String(FieldKind, d.Kind),
		Int(FieldDurNS, d.DurNS),
	)
	for k, v := range d.Attrs {
		switch x := v.(type) {
		case string:
			fields = append(fields, String(k, x))
		case int64:
			fields = append(fields, Int(k, x))
		case float64:
			fields = append(fields, Float(k, x))
		case bool:
			fields = append(fields, Bool(k, x))
		}
	}
	for k, v := range d.Metrics {
		fields = append(fields, Int(k, v))
	}
	return fields
}

// Len returns the number of retained spans and events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans.buf)
}

// Dropped returns how many spans and events were overwritten by ring
// wrap.
func (t *Tracer) Dropped() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.dropped
}

// Spans returns the retained spans and events in completion order.
func (t *Tracer) Spans() []SpanData {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans.items()
}

// Reset drops all retained spans and events (the drop counter
// survives).
func (t *Tracer) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans.reset()
}

// WriteJSON writes the retained spans and events as NDJSON, one per
// line — the /debug/trace format and the CLIs' -trace file.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, sp := range t.Spans() {
		if err := enc.Encode(sp); err != nil {
			return err
		}
	}
	return nil
}

// WriteFile writes the retained spans and events to a new file at path
// as JSON lines: the CLIs' -trace export. The error covers the create,
// every write and the close. When the ring wrapped, warn gets one line
// naming how many of the oldest records are missing from the file.
func (t *Tracer) WriteFile(path string, warn io.Writer) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	err = t.WriteJSON(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("trace export: %w", err)
	}
	if n := t.Dropped(); n > 0 {
		fmt.Fprintf(warn, "%s: trace ring dropped %d oldest records\n", path, n)
	}
	return nil
}
