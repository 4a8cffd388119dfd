// encode.go is the success-path response encoder. A served iv-point
// answer or Table-I sweep is small and computed in microseconds, so
// reflective encoding/json was a large share of the handler; here the
// wire types append themselves into a pooled []byte instead, and each
// buffered answer or NDJSON frame leaves in one Write.
//
// The contract is byte identity with json.NewEncoder(w).Encode(v) on
// the same value: field order, omitempty (zero floats and ints, empty
// slices and maps, nil pointers), null for a nil non-omitempty slice,
// sorted map keys, encoding/json's float spelling and HTML-safe string
// escaping, and the trailing newline. The golden and fuzz tests in
// encode_test.go hold the two encoders together. One shortcut keeps
// the bytes the same while skipping work: a curve whose drain grid is
// bit-identical to the previous curve's copies the grid's
// already-formatted bytes (a Table-I response repeats one grid per gate
// voltage). Error bodies stay on encoding/json — a cold path.
package server

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"cntfet/internal/engine"
)

// maxPooledBuf bounds the encode buffers kept for reuse, so one huge
// sweep response does not pin its buffer in the pool for good.
const maxPooledBuf = 1 << 18

var encodeBufPool = sync.Pool{New: func() any { return new([]byte) }}

func getEncodeBuf() *[]byte { return encodeBufPool.Get().(*[]byte) }

func putEncodeBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	encodeBufPool.Put(b)
}

// appendJSONFloat appends f exactly as encoding/json spells a float64:
// the shortest round-tripping decimal, in exponent form below 1e-6 or
// from 1e21 up, with a two-digit negative exponent trimmed (e-07 →
// e-7). JSON has no spelling for NaN or ±Inf; those return an error
// classified as a numerical failure and append nothing.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("server: %w: %v has no JSON encoding", engine.ErrNumerical, f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { //lint:allow floatcmp encoding/json's exact zero test
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string the way encoding/json
// does with HTML escaping on: <, > and & as \u003c-style escapes,
// control bytes escaped, invalid UTF-8 replaced by \ufffd, and U+2028
// and U+2029 escaped.
func appendJSONString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// jsonBuf appends JSON into b, keeping the first error so the
// per-type appenders read as a straight list of fields.
type jsonBuf struct {
	b   []byte
	err error

	// gridVDS and gridJSON remember the last drain grid formatted and
	// its bytes; a bit-identical grid copies them instead of formatting
	// again. gridOwned is private storage for gridJSON when b is reset
	// between frames (see ownGrid).
	gridVDS   []float64
	gridJSON  []byte
	gridOwned []byte
}

func (j *jsonBuf) raw(s string) { j.b = append(j.b, s...) }

func (j *jsonBuf) str(s string) { j.b = appendJSONString(j.b, s) }

func (j *jsonBuf) int(v int64) { j.b = strconv.AppendInt(j.b, v, 10) }

func (j *jsonBuf) float(f float64) {
	var err error
	if j.b, err = appendJSONFloat(j.b, f); err != nil && j.err == nil {
		j.err = err
	}
}

// omitFloat appends an omitempty float field: key (with its leading
// comma) and value, or nothing for zero.
func (j *jsonBuf) omitFloat(key string, f float64) {
	if f != 0 { //lint:allow floatcmp omitempty drops exactly the zero float
		j.raw(key)
		j.float(f)
	}
}

// omitInt is omitFloat for integers.
func (j *jsonBuf) omitInt(key string, v int64) {
	if v != 0 {
		j.raw(key)
		j.int(v)
	}
}

// floats appends a []float64 field: null when nil, an array otherwise.
func (j *jsonBuf) floats(xs []float64) {
	if xs == nil {
		j.raw("null")
		return
	}
	j.b = append(j.b, '[')
	for i, x := range xs {
		if i > 0 {
			j.b = append(j.b, ',')
		}
		j.float(x)
	}
	j.b = append(j.b, ']')
}

// grid appends a curve's drain grid, reusing the previous grid's bytes
// when the values are bit-identical. The remembered slice must not
// change while j is in use — true of engine results and of streamed
// rows, whose slices belong to the sink.
func (j *jsonBuf) grid(vds []float64) {
	if len(vds) > 0 && sameBits(vds, j.gridVDS) {
		j.b = append(j.b, j.gridJSON...)
		return
	}
	start, failed := len(j.b), j.err != nil
	j.floats(vds)
	if len(vds) > 0 && !failed && j.err == nil {
		// Capacity-capped: later appends to b can never write into the
		// remembered bytes, and a reallocated b leaves them intact.
		j.gridVDS, j.gridJSON = vds, j.b[start:len(j.b):len(j.b)]
	}
}

// ownGrid moves the remembered grid bytes into j's own storage, so the
// memo survives the caller resetting b for the next frame.
func (j *jsonBuf) ownGrid() {
	j.gridOwned = append(j.gridOwned[:0], j.gridJSON...)
	j.gridJSON = j.gridOwned
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func (j *jsonBuf) curve(c *Curve) {
	j.raw(`{"vg":`)
	j.float(c.VG)
	j.raw(`,"vds":`)
	j.grid(c.VDS)
	j.raw(`,"ids":`)
	j.floats(c.IDS)
	j.b = append(j.b, '}')
}

func (j *jsonBuf) curves(cs []Curve) {
	j.b = append(j.b, '[')
	for i := range cs {
		if i > 0 {
			j.b = append(j.b, ',')
		}
		j.curve(&cs[i])
	}
	j.b = append(j.b, ']')
}

// metrics appends a counter map with its keys sorted, as encoding/json
// orders map keys.
func (j *jsonBuf) metrics(m map[string]int64) {
	var arr [48]string
	keys := arr[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	j.b = append(j.b, '{')
	for i, k := range keys {
		if i > 0 {
			j.b = append(j.b, ',')
		}
		j.str(k)
		j.b = append(j.b, ':')
		j.int(m[k])
	}
	j.b = append(j.b, '}')
}

// jobResponse appends a JobResponse object (no trailing newline).
func (j *jsonBuf) jobResponse(r *JobResponse) {
	j.raw(`{"kind":`)
	j.str(r.Kind)
	j.omitFloat(`,"ids":`, r.IDS)
	if op := r.OP; op != nil {
		j.raw(`,"op":{"vsc":`)
		j.float(op.VSC)
		j.raw(`,"ids":`)
		j.float(op.IDS)
		j.raw(`,"qs":`)
		j.float(op.QS)
		j.raw(`,"qd":`)
		j.float(op.QD)
		j.b = append(j.b, '}')
	}
	if len(r.Family) > 0 {
		j.raw(`,"family":`)
		j.curves(r.Family)
	}
	if len(r.RefFamily) > 0 {
		j.raw(`,"ref_family":`)
		j.curves(r.RefFamily)
	}
	if len(r.RMSPercent) > 0 {
		j.raw(`,"rms_percent":`)
		j.floats(r.RMSPercent)
	}
	if mc := r.MC; mc != nil {
		j.raw(`,"mc":{"samples":`)
		j.floats(mc.Samples)
		j.raw(`,"mean":`)
		j.float(mc.Mean)
		j.raw(`,"std":`)
		j.float(mc.Std)
		j.raw(`,"p5":`)
		j.float(mc.P5)
		j.raw(`,"p50":`)
		j.float(mc.P50)
		j.raw(`,"p95":`)
		j.float(mc.P95)
		j.b = append(j.b, '}')
	}
	if len(r.Metrics) > 0 {
		j.raw(`,"metrics":`)
		j.metrics(r.Metrics)
	}
	j.raw(`,"elapsed_ns":`)
	j.int(r.ElapsedNS)
	j.b = append(j.b, '}')
}

// streamFrame appends one NDJSON frame, newline included. Row, MC and
// done frames are hand-encoded; an error frame goes through
// encoding/json like every other error body.
func (j *jsonBuf) streamFrame(f *StreamFrame) {
	j.b = append(j.b, '{')
	sep := ""
	if row := f.Row; row != nil {
		j.raw(`"row":{"index":`)
		j.int(int64(row.Index))
		if row.Ref {
			j.raw(`,"ref":true`)
		}
		j.raw(`,"vg":`)
		j.float(row.VG)
		j.raw(`,"vds":`)
		j.grid(row.VDS)
		j.raw(`,"ids":`)
		j.floats(row.IDS)
		j.b = append(j.b, '}')
		sep = ","
	}
	if mc := f.MC; mc != nil {
		j.raw(sep + `"mc":{"done":`)
		j.int(int64(mc.Done))
		j.raw(`,"total":`)
		j.int(int64(mc.Total))
		j.raw(`,"mean":`)
		j.float(mc.Mean)
		j.raw(`,"std":`)
		j.float(mc.Std)
		j.b = append(j.b, '}')
		sep = ","
	}
	if f.Done != nil {
		j.raw(sep + `"done":`)
		j.jobResponse(f.Done)
		sep = ","
	}
	if f.Error != nil {
		b, err := json.Marshal(f.Error)
		if err != nil && j.err == nil {
			j.err = err
		}
		j.raw(sep + `"error":`)
		j.b = append(j.b, b...)
	}
	j.raw("}\n")
}

// appendJobResponse appends r and a newline: the bytes
// json.NewEncoder(w).Encode(r) writes.
func appendJobResponse(dst []byte, r *JobResponse) ([]byte, error) {
	j := jsonBuf{b: dst}
	j.jobResponse(r)
	j.b = append(j.b, '\n')
	return j.b, j.err
}

// appendStreamFrame appends one frame and its newline: the bytes
// json.NewEncoder(w).Encode(f) writes.
func appendStreamFrame(dst []byte, f *StreamFrame) ([]byte, error) {
	j := jsonBuf{b: dst}
	j.streamFrame(f)
	return j.b, j.err
}
