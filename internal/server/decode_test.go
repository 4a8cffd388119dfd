package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"cntfet/internal/fettoy"
)

// identical is reflect.DeepEqual with floats compared by their bits
// (-0 is not 0) — the equality a decoder must reproduce.
func identical(a, b reflect.Value) bool {
	if a.Kind() != b.Kind() {
		return false
	}
	switch a.Kind() {
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return identical(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !identical(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !identical(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	}
	return a.Interface() == b.Interface()
}

func identicalRequests(a, b JobRequest) bool {
	return identical(reflect.ValueOf(a), reflect.ValueOf(b))
}

// stdDecode is the reference decode: what the server ran before the
// hand decoder, and still runs on every body the hand decoder rejects.
func stdDecode(body []byte) (JobRequest, error) {
	var jr JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&jr)
	return jr, err
}

// decodeSeeds are bodies for the differential fuzz test, grouped by the
// encoding/json behaviour they pin.
var decodeSeeds = []string{
	// Float bits, the number grammar and range errors.
	`{"vg": -0, "vd": 1e-320, "gates": [-0, 0, 5e-324, 1.7976931348623157e308, 0.1, 1E+2, 1e-400, -0.0e-0]}`,
	`{"vg": 1e309}`, `{"vd": -1e309}`, `{"vg": 01}`, `{"vg": -}`, `{"vg": 1.}`, `{"vg": .5}`, `{"vg": +1}`,
	`{"vg": 1e}`, `{"vg": 1e+}`, `{"vg": 0x1}`, `{"vg": Infinity}`, `{"vg": NaN}`, `{"vg": 1.5.5}`,
	`{"workers": 9223372036854775807, "seed": -9223372036854775808}`, `{"workers": 9223372036854775808}`,
	`{"seed": -9223372036854775809}`, `{"workers": 1.0}`, `{"repeat": 1e2}`, `{"samples": -0}`,
	// Nil vs empty slices, nil vs set pointers.
	`{"gates": [], "drains": null}`, `{"ref_family": [{"vds": [], "ids": null}]}`, `{"ref_family": []}`,
	`{"model": null}`, `{"model": {}}`, `{"model": {"ef": null}}`, `{"model": {"ef": 0}}`, `{"ref": {"ef": -0}}`,
	// Last-wins duplicates; a repeated object merges into the first.
	`{"model": {"family": "model2", "ef": 1}, "model": {"t": 400}}`,
	`{"model": {"ef": 1}, "model": null, "model": {"t": 5}}`,
	`{"model": {"ef": 1}, "model": {"ef": 2}, "ref": {"device": "javey"}, "ref": {"family": "model1"}}`,
	`{"gates": [1, 2, 3], "gates": [4], "gates": [5, null, null]}`,
	`{"gates": [1, 2], "gates": [], "gates": [null]}`,
	`{"drains": [1, 2, 3, 4, 5], "drains": [6], "drains": [7, null, null, null, null, null, null]}`,
	`{"ref_family": [{"vg": 1, "vds": [1, 2]}, {"vg": 2}], "ref_family": [{"ids": [3]}], "ref_family": [{}, null]}`,
	`{"ref_family": [{"vds": [1, 2, 3]}], "ref_family": [{"vds": [4]}], "ref_family": [{"vds": [null, null, null]}]}`,
	// null leaves scalars unchanged.
	`{"kind": "iv-point", "kind": null, "vg": 1, "vg": null, "workers": 3, "workers": null, "seed": 4, "seed": null, "stream": true, "stream": null}`,
	`{"kind": null, "model": {"family": null, "device": null, "t": null}}`,
	// Case-folded names, including U+212A KELVIN SIGN and U+017F LONG S.
	`{"KIND": "iv-point", "Model": {"FAMILY": "reference", "T": 300, "eF": 1}}`,
	"{\"\u212Aind\": \"iv-point\", \"\u017Ftream\": true, \"\u017Feed\": 3, \"\u017Famples\": 2}",
	"{\"model\": {\"\u212A\": 1}}", "{\"model\": {\"\u017F\": 1}}", "{\"\u212A\u212Aind\": 1}",
	`{"Ref_Family": [{"VDS": [1], "iDs": [2], "Vg": 3}], "DIAMETER_SIGMA": 1, "Ef_Sigma": 2}`,
	"{\"k\u0130nd\": \"x\"}", "{\"k\u0131nd\": \"x\"}",
	// \u escapes in names and strings, and invalid UTF-8.
	`{"kind": "iv-point", "model": {"family": "model1"}}`,
	`{"kind": "a\"b\\c\/d\b\f\n\r\t"}`,
	`{"kind": "😀 \ud83d x \ude00 \ud800A 􏿿 \ud800\ud800"}`,
	`{"kind": "\u0000<>& "}`, `{"kind": "\x"}`, `{"kind": "\u12"}`, `{"kind": "\u12G4"}`, `{"kind": "\'"}`,
	"{\"kind\": \"\xff\xfe\", \"model\": {\"family\": \"model1\xc0\", \"device\": \"\xe2\x80\"}}",
	"{\"kin\xffd\": 1}", "{\"kind\": \"a\tb\"}", "{\"kind\": \"\xed\xa0\x80\"}",
	// Bytes after the first value are never read; before it, only
	// whitespace is allowed.
	`{"kind": "iv-point"} trailing`, `{"kind": "iv-point"}}`, `{} {}`, `null x`, `nullx`, `null`,
	" \t\r\n{ \"kind\" : \"iv-point\" , \"vg\" : 1 } ", "\xef\xbb\xbf{}", "\x00{}",
	// Truncation, top-level types and object syntax.
	``, ` `, `nul`, `{"kind": "iv-point"`, `{"kind"`, `{"kind":`, `{"gates": [1,`, `[]`, `"x"`, `1`, `true`,
	`{"kind": "iv-point",}`, `{,}`, `{"a" 1}`, `{"vg": 1 "vd": 2}`, `{"gates": [1 2]}`, `{"gates": [1,]}`, `{"gates": [,1]}`,
	// Type errors and unknown fields.
	`{"stream": 1}`, `{"stream": "true"}`, `{"stream": false}`, `{"model": 5}`, `{"model": []}`, `{"model": "m"}`,
	`{"gates": {}}`, `{"gates": [true]}`, `{"gates": "0.5"}`, `{"ref_family": [1]}`, `{"ref_family": {}}`,
	`{"ref_family": [{"zz": 1}]}`, `{"model": {"famly": "x"}}`, `{"vg": [[[[]]]]}`, `{"kind": 7}`, `{"vg": "1"}`,
}

// routeKeySeeds mirror FuzzRouteKey's corpus (internal/cluster).
var routeKeySeeds = []string{
	`{"kind": "iv-point", "model": {"family": "reference"}, "vg": 0.5, "vd": 0.4}`,
	`{"kind": "family-sweep", "model": {"family": "model2", "device": "javey", "t": 150, "ef": -0.5}, "gates": [0.3, 0.6], "drains": [0, 0.6], "stream": true}`,
	`{"kind": "rms-compare", "model": {}, "ref": {"family": "reference"}, "ref_family": [{"vg": 0.5, "vds": [0], "ids": [0]}]}`,
	``, `null`, `[]`, `"model"`, `{`, `{"kind": "iv-point", "model": {"family": "model1"}`,
	`{"kind": "iv-point", "model": {"family": "model1"}} trailing`, `{"model": {"t": 1e999}}`,
	`{"kind": 7, "model": {"family": "model1"}}`, `{"kind": "iv-point", "model": "model1"}`,
	`{"kind": "iv-point", "model": {"family": 3, "t": "hot"}}`, `{"kind": "iv-point", "vg": "x", "model": {"ef": -0.32}}`,
	`{"gates": {"a": 1}, "model": {"family": "reference"}, "workers": 1.5}`, `{"model": null, "kind": null}`,
	`{"model": {"device": "0", "ef": 0}}`,
	`{"model": {"family": "model1"}, "model": {"t": 450}}`, `{"model": {"family": "model1"}, "model": null}`,
	`{"kind": "iv-point", "kind": "monte-carlo", "model": {"family": "model2"}, "model": 5}`,
	`{"KIND": "iv-point", "Model": {"FAMILY": "reference", "T": 300}}`, "{\"\u212Aind\": \"iv-point\", \"MODEL\": {}}",
}

// badRequestSeeds mirror TestBadRequests' bodies.
var badRequestSeeds = []string{
	`{"kind": `, `{"kind": "iv-point", "modle": {}}`, `{"kind": "netlist", "model": {"family": "model2"}}`,
	`{"kind": "iv-point"}`, `{"kind": "iv-point", "model": {"family": "model9"}}`,
	`{"kind": "iv-point", "model": {"family": "model2", "device": "exotic"}}`,
	`{"kind": "iv-point", "model": {"family": "model2", "t": -4}}`,
	`{"kind": "family-sweep", "model": {"family": "model2"}, "gates": [0.5], "drains": [0.1], "strategy": "serial"}`,
	`{"kind": "family-sweep", "model": {"family": "model2"}}`,
	`{"kind": "rms-compare", "model": {"family": "model2"}, "ref": {"family": "model1"}, "ref_family": [], "gates": [0.5], "drains": [0.1]}`,
	`{"kind": "rms-compare", "model": {"family": "model2"}, "ref_family": [], "gates": [0.5], "drains": [0.1]}`,
	`{"kind": "monte-carlo", "model": {"family": "model2"}}`,
}

// FuzzDecodeJobRequest holds the hand decoder to encoding/json: both
// accept or reject every body alike and accepted values are identical
// to the float bit. The key-fields mode is held to json.Unmarshal's
// partial fill of {kind, model} the same way.
func FuzzDecodeJobRequest(f *testing.F) {
	for _, seeds := range [][]string{decodeSeeds, routeKeySeeds, badRequestSeeds, {sweepBody, tableIBody}} {
		for _, body := range seeds {
			f.Add([]byte(body))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		want, wantErr := stdDecode(body)
		var got JobRequest
		if ok := decodeJobRequest(body, &got); ok != (wantErr == nil) {
			t.Fatalf("body %q: hand decoder accepted=%v, encoding/json error %v", body, ok, wantErr)
		} else if ok && !identicalRequests(got, want) {
			t.Fatalf("body %q: decoded\n%s\nencoding/json\n%s", body, dump(got), dump(want))
		}

		var partial struct {
			Kind  string     `json:"kind"`
			Model *ModelSpec `json:"model"`
		}
		partialErr := json.Unmarshal(body, &partial)
		keys, ok := DecodeKeyFields(body)
		if ok != (partialErr == nil) {
			t.Fatalf("body %q: key fields accepted=%v, json.Unmarshal error %v", body, ok, partialErr)
		}
		if ok && !identicalRequests(keys, JobRequest{Kind: partial.Kind, Model: partial.Model}) {
			t.Fatalf("body %q: key fields %s, json.Unmarshal kind %q model %s", body, dump(keys), partial.Kind, dump(partial.Model))
		}
	})
}

// dump renders a decoded value with float bits visible.
func dump(v any) string { return fmt.Sprintf("%#v", v) }

// TestDecodeRejectionKeepsErrorText: a body the hand decoder rejects
// answers with encoding/json's own error text, as before.
func TestDecodeRejectionKeepsErrorText(t *testing.T) {
	h := New(Config{}).Handler()
	for _, body := range []string{`{"kind": `, `{"kind": "iv-point", "modle": {}}`, `{"vg": 1e309}`, ``} {
		_, stdErr := stdDecode([]byte(body))
		w := post(t, h, body)
		var er ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil {
			t.Fatalf("%q: error body %s: %v", body, w.Body, err)
		}
		if want := "decoding request: " + stdErr.Error(); w.Code != 400 || er.Error != want {
			t.Errorf("%q: %d %q, want 400 %q", body, w.Code, er.Error, want)
		}
	}
}

// TestOverCapBodyAlways413 pins the stricter body cap: encoding/json
// stopped reading at the end of the first value, so an over-cap body
// whose request fit under the cap was served; now the whole body is
// read first and any body over the cap answers 413.
func TestOverCapBodyAlways413(t *testing.T) {
	body := `{"kind": "iv-point", "model": {}, "vg": 0.5, "vd": 0.4}`
	padded := body + strings.Repeat(" ", 64)
	if _, err := stdDecode([]byte(padded)); err != nil {
		t.Fatalf("encoding/json rejects the padded body: %v", err)
	}
	h := New(Config{MaxBody: int64(len(body) + 8), Resolver: fakeResolver{solverFunc(func(fettoy.Bias) (float64, error) { return 1, nil })}}).Handler()
	if w := post(t, h, body); w.Code != 200 {
		t.Fatalf("under-cap body: status %d: %s", w.Code, w.Body)
	}
	if w := post(t, h, padded); w.Code != 413 {
		t.Fatalf("over-cap body: status %d, want 413: %s", w.Code, w.Body)
	}
}

// BenchmarkDecodeJobRequest times the served iv-point and Table-I
// bodies through encoding/json, the way the handler used to decode
// them, and through the hand decoder.
func BenchmarkDecodeJobRequest(b *testing.B) {
	for _, tc := range []struct{ name, body string }{
		{"iv-point", `{"kind":"iv-point","model":{"family":"model1","t":300,"ef":-0.32},"vg":0.5,"vd":0.4}`},
		{"table-i", tableIBody},
	} {
		body := []byte(tc.body)
		b.Run(tc.name+"/encoding-json", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := stdDecode(body); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(tc.name+"/hand", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var jr JobRequest
				if !decodeJobRequest(body, &jr) {
					b.Fatal("rejected")
				}
			}
		})
	}
}

// TestDecodeKeyFieldsSkipsWithoutAllocating: the router's decode of a
// Table-I body allocates only the model spec; the 68-number grids are
// validated and skipped in place.
func TestDecodeKeyFieldsSkipsWithoutAllocating(t *testing.T) {
	body := []byte(tableIBody)
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := DecodeKeyFields(body); !ok {
			t.Fatal("Table-I body rejected")
		}
	})
	if allocs > 1 {
		t.Fatalf("DecodeKeyFields made %v allocations per Table-I body, want 1 (the model spec)", allocs)
	}
}
