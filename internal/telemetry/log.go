// log.go is the structured NDJSON job/access log: one JSON object per
// line, hand-encoded (deterministic field order, one Write per record,
// no reflection, strings escaped as encoding/json escapes them) so
// concurrent writers never interleave and log consumers get
// machine-parseable lines. Field keys are registered in
// keys.go and enforced by the telemetrykeys analyzer exactly like
// instrument names — a dashboards-vs-code drift in "dur_ns" is the
// same bug as one in "fettoy.newton_iters".
package telemetry

import (
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"cntfet/internal/jsonenc"
)

// fieldKind discriminates the typed Field payload.
type fieldKind uint8

const (
	fkString fieldKind = iota
	fkInt
	fkFloat
	fkBool
)

// Field is one typed key/value pair of a structured-log record or a
// span attribute. Build fields with the String/Int/Float/Bool/Dur
// constructors; keys must be Field*/Attr* constants from keys.go.
type Field struct {
	key  string
	kind fieldKind
	str  string
	i64  int64
	f64  float64
	b    bool
}

// String returns a string-valued field.
func String(key, v string) Field { return Field{key: key, kind: fkString, str: v} }

// Int returns an integer-valued field.
func Int(key string, v int64) Field { return Field{key: key, kind: fkInt, i64: v} }

// Float returns a float-valued field.
func Float(key string, v float64) Field { return Field{key: key, kind: fkFloat, f64: v} }

// Bool returns a boolean-valued field.
func Bool(key string, v bool) Field { return Field{key: key, kind: fkBool, b: v} }

// Dur returns a duration field, serialised as integer nanoseconds
// (pair it with a key carrying the _ns suffix, like FieldDurNS).
func Dur(key string, d time.Duration) Field { return Int(key, int64(d)) }

// Key returns the field's key.
func (f Field) Key() string { return f.key }

// value returns the field's payload as its natural Go type.
func (f Field) value() any {
	switch f.kind {
	case fkInt:
		return f.i64
	case fkFloat:
		return f.f64
	case fkBool:
		return f.b
	}
	return f.str
}

// Logger writes structured NDJSON records. A nil *Logger ignores all
// calls, so call sites hold one unconditionally. Safe for concurrent
// use: each record is one buffered Write under the mutex.
type Logger struct {
	mu  sync.Mutex
	w   io.Writer
	buf []byte
}

// NewLogger returns a logger writing NDJSON records to w.
func NewLogger(w io.Writer) *Logger { return &Logger{w: w} }

// Log writes one record:
//
//	{"ts":"<RFC3339Nano>","event":"<event>", <fields...>}
//
// event is a LogEvent* constant; duplicate field keys keep the last
// value wins semantics of JSON readers (emit each key once). Write
// errors are dropped: logging must never fail the request it observes.
func (l *Logger) Log(event string, fields ...Field) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buf[:0]
	b = append(b, `{"ts":`...)
	b = jsonenc.AppendString(b, time.Now().UTC().Format(time.RFC3339Nano))
	b = append(b, `,"event":`...)
	b = jsonenc.AppendString(b, event)
	for _, f := range fields {
		b = append(b, ',')
		b = jsonenc.AppendString(b, f.key)
		b = append(b, ':')
		switch f.kind {
		case fkString:
			b = jsonenc.AppendString(b, f.str)
		case fkInt:
			b = strconv.AppendInt(b, f.i64, 10)
		case fkFloat:
			if math.IsNaN(f.f64) || math.IsInf(f.f64, 0) {
				// JSON has no NaN/Inf literals; quote them like
				// encoding/json refuses to.
				b = jsonenc.AppendString(b, strconv.FormatFloat(f.f64, 'g', -1, 64))
			} else {
				b = strconv.AppendFloat(b, f.f64, 'g', -1, 64)
			}
		case fkBool:
			b = strconv.AppendBool(b, f.b)
		}
	}
	b = append(b, '}', '\n')
	l.buf = b
	_, _ = l.w.Write(b)
}
