// decode.go is the request-side twin of encode.go: a hand-written
// decoder for the POST /v1/jobs body. A served iv-point job computes in
// a few microseconds, and encoding/json's reflective decode cost more
// than that; here the body is walked once, the wire strings every
// request repeats (kinds, families, presets) are interned instead of
// copied, and numbers parse straight into their fields.
//
// The contract is the value and the accept/reject decision of
// json.NewDecoder(body) with DisallowUnknownFields, decoding one value
// into a zero JobRequest: the same JSON grammar (numbers, escapes,
// literals), case-insensitive names under Unicode simple folding (the
// Kelvin sign matches "k"), last-wins duplicates with a repeated object
// merging into the value already decoded, null leaving scalars alone
// and clearing pointers and slices, arrays reusing the slice they
// overwrite, invalid UTF-8 coerced to U+FFFD, the int and float range
// checks, and bytes after the first value ignored. The decoder only
// decides accept or reject; the server decodes a rejected body again
// with encoding/json for its error text (a cold path), and the
// differential fuzz test in decode_test.go holds the two together.
//
// The router's key-fields mode (DecodeKeyFields) reads the same grammar
// under json.Unmarshal's rules instead: only kind and model are filled,
// every other value is validated and skipped without allocating, and
// only whitespace may follow the value.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"slices"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"cntfet/internal/engine"
)

// maxDepth is encoding/json's nesting limit: a skipped value nested
// deeper is a syntax error there, so it is a rejection here.
const maxDepth = 10000

// Wire field names, in the order of the Go struct fields they fill.
var (
	jobFields   = []string{"kind", "model", "ref", "ref_family", "vg", "vd", "gates", "drains", "workers", "ef_sigma", "diameter_sigma", "samples", "seed", "stream"}
	specFields  = []string{"family", "device", "t", "ef"}
	curveFields = []string{"vg", "vds", "ids"}
)

// Indexes into jobFields.
const (
	fKind = iota
	fModel
	fRef
	fRefFamily
	fVG
	fVD
	fGates
	fDrains
	fWorkers
	fEFSigma
	fDiameterSigma
	fSamples
	fSeed
	fStream
)

// interned are the wire strings a decode returns without copying:
// every kind, family and device preset name.
var interned = []string{
	engine.IVPoint.String(), engine.FamilySweep.String(), engine.RMSCompare.String(), engine.MonteCarlo.String(),
	FamilyReference, FamilyModel1, FamilyModel2, DeviceDefault, DeviceJavey,
}

func intern(b []byte) string {
	for _, s := range interned {
		if string(b) == s {
			return s
		}
	}
	return string(b)
}

// decoder walks one body. Every method reports false where
// encoding/json would report an error.
type decoder struct {
	data []byte
	off  int
	// keyFields selects the router's mode: json.Unmarshal's rules,
	// filling only kind and model.
	keyFields bool
}

// decodeBody reads the request body into a pooled buffer and decodes
// it into the zero *jr. A body over limit bytes is an *http.MaxBytesError
// however early its first value ends. A body the hand decoder rejects
// is decoded again by encoding/json, whose error — and error text — is
// the answer.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, jr *JobRequest) error {
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	body, err := readAll(http.MaxBytesReader(w, r.Body, limit), (*buf)[:0])
	*buf = body
	if err != nil {
		return err
	}
	if decodeJobRequest(body, jr) {
		return nil
	}
	// A fresh value, not jr: handing jr to encoding/json would move the
	// caller's request to the heap on the hot path too.
	var std JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err = dec.Decode(&std)
	*jr = std
	return err
}

// readAll appends everything r yields to buf.
func readAll(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, 512)
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err != nil {
			if errors.Is(err, io.EOF) {
				err = nil
			}
			return buf, err
		}
	}
}

// decodeJobRequest decodes body into the zero JobRequest *jr exactly as
// encoding/json's Decoder (with DisallowUnknownFields) decodes its first
// value, reporting false where that decoder would return an error. On
// false *jr is unspecified. Bytes after the first value are never read.
func decodeJobRequest(body []byte, jr *JobRequest) bool {
	d := decoder{data: body}
	return d.value(jr)
}

// DecodeKeyFields decodes the two fields server.RouteKey reads — kind
// and model — from a job body under json.Unmarshal's rules: unknown
// names and every other field are validated and skipped without
// allocating, and the body must hold exactly one JSON value. ok is
// false where json.Unmarshal would report an error; its partial fill
// of such a body is then the caller's to reproduce.
func DecodeKeyFields(body []byte) (jr JobRequest, ok bool) {
	d := decoder{data: body, keyFields: true}
	if !d.value(&jr) || d.more() {
		return JobRequest{}, false
	}
	return jr, true
}

// value decodes the body's first value into *jr: an object, or null,
// which leaves *jr zero. Any other value is a syntax or type error.
func (d *decoder) value(jr *JobRequest) bool {
	if !d.more() {
		return false
	}
	switch d.data[d.off] {
	case '{':
		return d.job(jr)
	case 'n':
		return d.null()
	}
	return false
}

// more skips whitespace and reports whether input remains.
func (d *decoder) more() bool {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return true
		}
	}
	return false
}

// next skips whitespace and consumes c if it is the next byte.
func (d *decoder) next(c byte) bool {
	if d.more() && d.data[d.off] == c {
		d.off++
		return true
	}
	return false
}

func (d *decoder) literal(lit string) bool {
	if len(d.data)-d.off >= len(lit) && string(d.data[d.off:d.off+len(lit)]) == lit {
		d.off += len(lit)
		return true
	}
	return false
}

// null consumes a null literal if one is next.
func (d *decoder) null() bool { return d.literal("null") }

// member advances to the next member of an object whose '{' (first)
// or previous value has been consumed, returning the member's raw
// (still quoted) name with the ':' consumed. done reports the closing
// '}'.
func (d *decoder) member(first bool) (name []byte, done, ok bool) {
	if !d.more() {
		return nil, false, false
	}
	switch c := d.data[d.off]; {
	case c == '}':
		d.off++
		return nil, true, true
	case !first && c == ',':
		d.off++
		d.more()
	case !first:
		return nil, false, false
	}
	raw, ok := d.rawString()
	if !ok || !d.next(':') {
		return nil, false, false
	}
	return raw, false, d.more()
}

// element advances to the next element of an array whose '[' (first)
// or previous element has been consumed. done reports the closing ']'.
func (d *decoder) element(first bool) (done, ok bool) {
	if !d.more() {
		return false, false
	}
	switch c := d.data[d.off]; {
	case c == ']':
		d.off++
		return true, true
	case !first && c == ',':
		d.off++
		return false, d.more()
	case !first:
		return false, false
	}
	return false, true
}

// field finds name among names the way encoding/json matches struct
// fields: exactly, else case-insensitively under Unicode simple
// folding. -1 means an unknown name.
func field(name []byte, names []string) int {
	for i, n := range names {
		if string(name) == n {
			return i
		}
	}
	for i, n := range names {
		if foldEqual(name, n) {
			return i
		}
	}
	return -1
}

// foldEqual reports whether name folds to the lower-case ASCII field
// name n: encoding/json folds each rune to the smallest rune of its
// simple-fold orbit (so U+212A KELVIN SIGN matches k and U+017F LONG S
// matches s) and ASCII letters to upper case.
func foldEqual(name []byte, n string) bool {
	j := 0
	for i := 0; i < len(name); j++ {
		r := rune(name[i])
		if r < utf8.RuneSelf {
			i++
		} else {
			var size int
			r, size = utf8.DecodeRune(name[i:])
			r = foldRune(r)
			i += size
		}
		if j >= len(n) || upper(r) != upper(rune(n[j])) {
			return false
		}
	}
	return j == len(n)
}

func upper(r rune) rune {
	if 'a' <= r && r <= 'z' {
		return r - ('a' - 'A')
	}
	return r
}

// foldRune returns the smallest rune of r's simple-fold orbit.
func foldRune(r rune) rune {
	for {
		r2 := unicode.SimpleFold(r)
		if r2 <= r {
			return r2
		}
		r = r2
	}
}

// object decodes an object whose '{' is next, handing set the index in
// names of each member's field (-1 for an unknown name) to decode its
// value.
func (d *decoder) object(names []string, set func(f int) bool) bool {
	d.off++
	for first := true; ; first = false {
		raw, done, ok := d.member(first)
		if !ok || done {
			return ok
		}
		if !set(field(unquote(raw), names)) {
			return false
		}
	}
}

// job decodes the request object; d.off is at its '{'.
func (d *decoder) job(jr *JobRequest) bool {
	return d.object(jobFields, func(f int) bool {
		if d.keyFields && f != fKind && f != fModel {
			// json.Unmarshal into {kind, model} ignores every other name.
			return d.skip(1)
		}
		switch f {
		case fKind:
			return d.str(&jr.Kind)
		case fModel:
			return d.spec(&jr.Model)
		case fRef:
			return d.spec(&jr.Ref)
		case fRefFamily:
			return array(d, &jr.RefFamily)
		case fVG:
			return d.float(&jr.VG)
		case fVD:
			return d.float(&jr.VD)
		case fGates:
			return array(d, &jr.Gates)
		case fDrains:
			return array(d, &jr.Drains)
		case fWorkers:
			return d.int(&jr.Workers)
		case fEFSigma:
			return d.float(&jr.EFSigma)
		case fDiameterSigma:
			return d.float(&jr.DiameterSigma)
		case fSamples:
			return d.int(&jr.Samples)
		case fSeed:
			return d.int64(&jr.Seed)
		case fStream:
			return d.bool(&jr.Stream)
		}
		// DisallowUnknownFields.
		return false
	})
}

// spec decodes a *ModelSpec: null clears it, an object merges into the
// spec already decoded (or a new one).
func (d *decoder) spec(dst **ModelSpec) bool {
	if d.null() {
		*dst = nil
		return true
	}
	if d.off >= len(d.data) || d.data[d.off] != '{' {
		return false
	}
	if *dst == nil {
		*dst = new(ModelSpec)
	}
	m := *dst
	return d.object(specFields, func(f int) bool {
		switch f {
		case 0:
			return d.str(&m.Family)
		case 1:
			return d.str(&m.Device)
		case 2:
			return d.float(&m.T)
		case 3:
			return d.floatPtr(&m.EF)
		}
		return d.keyFields && d.skip(2)
	})
}

// curve decodes one ref_family element in place: null leaves it, an
// object overwrites only the fields it names.
func (d *decoder) curve(c *Curve) bool {
	if d.null() {
		return true
	}
	if d.off >= len(d.data) || d.data[d.off] != '{' {
		return false
	}
	return d.object(curveFields, func(f int) bool {
		switch f {
		case 0:
			return d.float(&c.VG)
		case 1:
			return array(d, &c.VDS)
		case 2:
			return array(d, &c.IDS)
		}
		return false
	})
}

// str decodes a string field; null leaves it.
func (d *decoder) str(dst *string) bool {
	if d.null() {
		return true
	}
	raw, ok := d.rawString()
	if ok {
		*dst = intern(unquote(raw))
	}
	return ok
}

func (d *decoder) bool(dst *bool) bool {
	switch {
	case d.null():
	case d.literal("true"):
		*dst = true
	case d.literal("false"):
		*dst = false
	default:
		return false
	}
	return true
}

// float decodes a float64 field; null leaves it. Out-of-range numbers
// are errors, as in encoding/json.
func (d *decoder) float(dst *float64) bool {
	if d.null() {
		return true
	}
	num, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return false
	}
	*dst = f
	return true
}

// floatPtr decodes a *float64: null clears it, a number is written
// through the pointer already decoded (or a new one).
func (d *decoder) floatPtr(dst **float64) bool {
	if d.null() {
		*dst = nil
		return true
	}
	var f float64
	if !d.float(&f) {
		return false
	}
	if *dst == nil {
		*dst = new(float64)
	}
	**dst = f
	return true
}

func (d *decoder) int(dst *int) bool {
	v := int64(*dst)
	ok := d.integer(&v, strconv.IntSize)
	*dst = int(v)
	return ok
}

func (d *decoder) int64(dst *int64) bool { return d.integer(dst, 64) }

// integer decodes an integer field of the given bit size; null leaves
// it. Fractions, exponents and overflow are errors.
func (d *decoder) integer(dst *int64, bits int) bool {
	if d.null() {
		return true
	}
	num, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(num), 10, bits)
	if err != nil {
		return false
	}
	*dst = v
	return true
}

// array decodes a slice field the way encoding/json does: null clears
// it, and an array overwrites it element by element, reusing the
// slice's backing array (so a null element keeps whatever that array
// held), truncating to the array's length, and replacing it with a
// fresh empty slice for [].
func array[T float64 | Curve](d *decoder, dst *[]T) bool {
	if d.null() {
		*dst = nil
		return true
	}
	if d.off >= len(d.data) || d.data[d.off] != '[' {
		return false
	}
	d.off++
	s := *dst
	i := 0
	for ; ; i++ {
		done, ok := d.element(i == 0)
		if !ok {
			return false
		}
		if done {
			break
		}
		if i >= cap(s) {
			s = grow(s, i+d.countElements())
		}
		if i >= len(s) {
			s = s[:i+1]
		}
		switch p := any(&s[i]).(type) {
		case *float64:
			ok = d.float(p)
		case *Curve:
			ok = d.curve(p)
		}
		if !ok {
			return false
		}
	}
	if i == 0 {
		s = []T{}
	}
	*dst = s[:i]
	return true
}

// grow returns s with room for at least n elements. Every element up
// to the old capacity is kept, not just the old length: encoding/json
// re-exposes elements past the length when a later array extends the
// slice, and a null element there keeps the stale value.
func grow[T any](s []T, n int) []T {
	g := make([]T, len(s), max(n, 2*cap(s)))
	copy(g[:cap(s)], s[:cap(s)])
	return g
}

// countElements estimates how many elements remain in the array being
// decoded: one plus the commas before the next ']', exact for an array
// of numbers, stopping at the first string or nested value. It only
// sizes an allocation; the decode itself validates.
func (d *decoder) countElements() int {
	n := 1
	for _, c := range d.data[d.off:] {
		switch c {
		case ',':
			n++
		case ']', '[', '{', '"':
			return n
		}
	}
	return n
}

// number consumes a JSON number and returns its text.
func (d *decoder) number() ([]byte, bool) {
	b, start := d.data, d.off
	i := start
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i+1 >= len(b) || !isDigit(b[i+1]) {
			return nil, false
		}
		i = digits(b, i+1)
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i >= len(b) || !isDigit(b[i]) {
			return nil, false
		}
		i = digits(b, i)
	}
	d.off = i
	return b[start:i], true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// rawString consumes a JSON string and returns the bytes between its
// quotes, validated as encoding/json's scanner validates them: no raw
// control bytes, only the eight short escapes and \u with four hex
// digits. Bytes from 0x80 up pass unchecked (unquote coerces them).
func (d *decoder) rawString() ([]byte, bool) {
	b := d.data
	if d.off >= len(b) || b[d.off] != '"' {
		return nil, false
	}
	start := d.off + 1
	for i := start; i < len(b); i++ {
		switch c := b[i]; {
		case c == '"':
			d.off = i + 1
			return b[start:i], true
		case c == '\\':
			i++
			if i >= len(b) {
				return nil, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) {
					return nil, false
				}
				for _, h := range b[i+1 : i+5] {
					if !isHex(h) {
						return nil, false
					}
				}
				i += 4
			default:
				return nil, false
			}
		case c < ' ':
			return nil, false
		}
	}
	return nil, false
}

func isHex(c byte) bool {
	return isDigit(c) || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote decodes the validated contents of a JSON string as
// encoding/json does: escapes resolved, a surrogate pair joined, a lone
// surrogate and every invalid UTF-8 byte replaced by U+FFFD. A string
// needing none of that is returned as is, without copying.
func unquote(s []byte) []byte {
	r := 0
	for r < len(s) {
		c := s[r]
		if c == '\\' {
			break
		}
		if c < utf8.RuneSelf {
			r++
			continue
		}
		rr, size := utf8.DecodeRune(s[r:])
		if rr == utf8.RuneError && size == 1 {
			break
		}
		r += size
	}
	if r == len(s) {
		return s
	}
	b := make([]byte, r, len(s)+2*utf8.UTFMax)
	copy(b, s[:r])
	for r < len(s) {
		c := s[r]
		switch {
		case c == '\\':
			r++
			switch e := s[r]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[r+1:])
				r += 5
				if utf16.IsSurrogate(rr) {
					dec := unicode.ReplacementChar
					if len(s)-r >= 6 && s[r] == '\\' && s[r+1] == 'u' {
						if dec = utf16.DecodeRune(rr, hex4(s[r+2:])); dec != unicode.ReplacementChar {
							r += 6
						}
					}
					rr = dec
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r++
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRune(s[r:])
			r += size
			b = utf8.AppendRune(b, rr)
		}
	}
	return b
}

// hex4 parses four validated hex digits.
func hex4(s []byte) rune {
	var r rune
	for _, c := range s[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// skip validates and passes over one value of any type without
// allocating. depth counts the containers already open around it.
func (d *decoder) skip(depth int) bool {
	if d.off >= len(d.data) {
		return false
	}
	switch d.data[d.off] {
	case '{':
		if depth++; depth > maxDepth {
			return false
		}
		d.off++
		for first := true; ; first = false {
			_, done, ok := d.member(first)
			if !ok || done {
				return ok
			}
			if !d.skip(depth) {
				return false
			}
		}
	case '[':
		if depth++; depth > maxDepth {
			return false
		}
		d.off++
		for first := true; ; first = false {
			done, ok := d.element(first)
			if !ok {
				return false
			}
			if done {
				return true
			}
			if !d.skip(depth) {
				return false
			}
		}
	case '"':
		_, ok := d.rawString()
		return ok
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.null()
	}
	_, ok := d.number()
	return ok
}
