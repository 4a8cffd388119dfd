package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Event is one structured trace record. T carries the solver's own
// notion of time (transient simulation time, sweep value) rather than
// wall-clock, which keeps event logs deterministic and diffable; Seq
// orders events globally within one trace.
type Event struct {
	Seq    int64              `json:"seq"`
	Kind   string             `json:"kind"`
	T      float64            `json:"t,omitempty"`
	Fields map[string]float64 `json:"fields,omitempty"`
}

// Trace is a fixed-capacity ring buffer of solver events. When full,
// the oldest events are overwritten and counted as dropped — a long
// transient keeps its tail, which is where convergence trouble shows.
// A nil *Trace is a valid no-op sink, so call sites can hold one
// unconditionally and emit without nil checks.
type Trace struct {
	mu     sync.Mutex
	events ring[Event]
	seq    int64
}

// NewTrace returns a trace holding at most capacity events (minimum 1).
func NewTrace(capacity int) *Trace {
	return &Trace{events: newRing[Event](capacity)}
}

// Enabled reports whether events will be recorded; callers can skip
// assembling expensive fields when false.
func (t *Trace) Enabled() bool { return t != nil }

// Emit records one event. kv lists alternating string keys and
// float64 values; a trailing odd key is ignored.
func (t *Trace) Emit(kind string, simTime float64, kv ...any) {
	if t == nil {
		return
	}
	var fields map[string]float64
	if len(kv) >= 2 {
		fields = make(map[string]float64, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			k, ok := kv[i].(string)
			if !ok {
				continue
			}
			switch v := kv[i+1].(type) {
			case float64:
				fields[k] = v
			case int:
				fields[k] = float64(v)
			case int64:
				fields[k] = float64(v)
			}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events.push(Event{Seq: t.seq, Kind: kind, T: simTime, Fields: fields})
	t.seq++
}

// Len returns the number of retained events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events.buf)
}

// Dropped returns how many events were overwritten by ring wrap.
func (t *Trace) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.dropped
}

// Events returns the retained events in emission order.
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events.items()
}

// Reset drops all retained events but keeps the sequence counter, so
// post-reset events remain globally ordered against earlier exports.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.events.reset()
}

// WriteJSON writes the retained events as JSON Lines (one event object
// per line), the format every log tool ingests.
func (t *Trace) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, ev := range t.Events() {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}

// WriteText writes the retained events as human-oriented lines:
//
//	[seq] kind t=... k1=v1 k2=v2
func (t *Trace) WriteText(w io.Writer) error {
	for _, ev := range t.Events() {
		if _, err := fmt.Fprintf(w, "[%d] %s t=%g", ev.Seq, ev.Kind, ev.T); err != nil {
			return err
		}
		keys := make([]string, 0, len(ev.Fields))
		for k := range ev.Fields {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if _, err := fmt.Fprintf(w, " %s=%g", k, ev.Fields[k]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
