package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"testing"

	"cntfet/internal/engine"
	"cntfet/internal/fettoy"
	"cntfet/internal/jsonenc"
	"cntfet/internal/telemetry"
)

// stdEncode is the reference the hand encoder must match byte for
// byte: what json.NewEncoder(w).Encode(v) writes.
func stdEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

// solverFunc adapts a function into a device.Solver (IDS only, so an
// iv-point answer carries no operating point).
type solverFunc func(fettoy.Bias) (float64, error)

func (f solverFunc) IDS(b fettoy.Bias) (float64, error) { return f(b) }

// served runs one wire request through the engine the way the handler
// does and returns the buffered answer.
func served(t testing.TB, res Resolver, body string) JobResponse {
	t.Helper()
	var jr JobRequest
	if err := json.Unmarshal([]byte(body), &jr); err != nil {
		t.Fatal(err)
	}
	req, _, err := jr.toEngine(context.Background(), res, identify(jr.Model), identify(jr.Ref))
	if err != nil {
		t.Fatal(err)
	}
	out, err := engine.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return toWire(jr.Kind, out)
}

// tableIBody is the served Table-I shape: seven gate voltages over one
// 61-point drain grid on Model 1.
const tableIBody = `{"kind": "family-sweep", "model": {"family": "model1"},
	"gates": [0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6],
	"drains": [0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08, 0.09,
	           0.1, 0.11, 0.12, 0.13, 0.14, 0.15, 0.16, 0.17, 0.18, 0.19,
	           0.2, 0.21, 0.22, 0.23, 0.24, 0.25, 0.26, 0.27, 0.28, 0.29,
	           0.3, 0.31, 0.32, 0.33, 0.34, 0.35, 0.36, 0.37, 0.38, 0.39,
	           0.4, 0.41, 0.42, 0.43, 0.44, 0.45, 0.46, 0.47, 0.48, 0.49,
	           0.5, 0.51, 0.52, 0.53, 0.54, 0.55, 0.56, 0.57, 0.58, 0.59, 0.6]}`

// goldenResponses covers every job kind as the engine answers it, plus
// hand-built edge cases for each omitempty and null rule.
func goldenResponses(t testing.TB) map[string]JobResponse {
	cache := NewModelCache()
	ivOnly := fakeResolver{solverFunc(func(b fettoy.Bias) (float64, error) { return 1e-7 * b.VG * b.VD, nil })}
	tiny := math.SmallestNonzeroFloat64
	return map[string]JobResponse{
		"iv-point with op": served(t, cache, `{"kind": "iv-point", "model": {"family": "model2"}, "vg": 0.5, "vd": 0.4}`),
		"iv-point no op":   served(t, ivOnly, `{"kind": "iv-point", "model": {}, "vg": 0.5, "vd": 0.4}`),
		"family-sweep":     served(t, cache, tableIBody),
		"rms-compare": served(t, cache, `{"kind": "rms-compare", "model": {"family": "model2"},
			"ref": {"family": "model1"}, "gates": [0.4, 0.6], "drains": [0, 0.3, 0.6]}`),
		"rms-compare ref_family": served(t, cache, `{"kind": "rms-compare", "model": {"family": "model2", "ef": 0},
			"ref_family": [{"vg": 0.4, "vds": [0, 0.3], "ids": [0, 1e-6]}], "gates": [0.4], "drains": [0, 0.3]}`),
		"monte-carlo": served(t, cache, `{"kind": "monte-carlo", "model": {"ef": 0},
			"vg": 0.5, "vd": 0.4, "ef_sigma": 0.02, "samples": 25, "seed": 7}`),
		"zeros omitted": {Kind: "iv-point", IDS: math.Copysign(0, -1), Metrics: map[string]int64{},
			Family: []Curve{}, RMSPercent: []float64{}},
		"float edges": {Kind: "family-sweep", IDS: -tiny, Family: []Curve{
			{VG: 1e21, VDS: []float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), math.Copysign(0, -1)},
				IDS: []float64{tiny, -math.MaxFloat64, 1e-7, 123456789, 0.1}},
			{VG: -1e-300, VDS: []float64{1e-6, math.Nextafter(1e-6, 0), 1e21, math.Nextafter(1e21, 0), math.Copysign(0, -1)},
				IDS: []float64{}},
			{VG: 2, VDS: nil, IDS: nil},
			{VG: 3, VDS: []float64{}, IDS: []float64{1}},
			{VG: 4, VDS: []float64{}, IDS: []float64{1}},
		}, RefFamily: []Curve{{VG: 5, VDS: []float64{1e-6, 0}, IDS: []float64{2, 3}}}},
		"mc null samples": {Kind: "monte-carlo", MC: &MCResult{Mean: 1e-5, Std: 2e-7, P5: 1, P95: -1},
			Metrics: map[string]int64{"z.last": -3, "a.first": 1, "<&>": 2, "\u00e9\u2028": 4}, ElapsedNS: -1},
		"mc empty samples": {Kind: "monte-carlo", MC: &MCResult{Samples: []float64{}}},
		"escaped kind":     {Kind: "a<b>&\"c\"\\\n\t\x01\xff\u2029\u00e9", OP: &OperatingPoint{}},
	}
}

// emittedFloats flattens every float a response puts on the wire, in
// wire order, so a decode can be checked bit for bit against it.
func emittedFloats(r JobResponse) []float64 {
	var out []float64
	if r.IDS != 0 { //lint:allow floatcmp omitempty drops exactly the zero float
		out = append(out, r.IDS)
	}
	if r.OP != nil {
		out = append(out, r.OP.VSC, r.OP.IDS, r.OP.QS, r.OP.QD)
	}
	for _, fam := range [][]Curve{r.Family, r.RefFamily} {
		for _, c := range fam {
			out = append(append(append(out, c.VG), c.VDS...), c.IDS...)
		}
	}
	out = append(out, r.RMSPercent...)
	if r.MC != nil {
		out = append(append(out, r.MC.Samples...), r.MC.Mean, r.MC.Std, r.MC.P5, r.MC.P50, r.MC.P95)
	}
	return out
}

func sameFloatBits(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decoded %d floats, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("float %d decoded as %v, want %v", i, got[i], want[i])
		}
	}
}

// TestAppendJobResponseGolden is the encoder contract: for every job
// kind and every omitempty/null/escaping rule the wire types exercise,
// the hand encoder writes exactly encoding/json's bytes, and those
// bytes decode to bit-identical floats.
func TestAppendJobResponseGolden(t *testing.T) {
	for name, resp := range goldenResponses(t) {
		t.Run(name, func(t *testing.T) {
			want := stdEncode(t, resp)
			got, err := appendJobResponse([]byte("prefix"), &resp)
			if err != nil {
				t.Fatal(err)
			}
			got = bytes.TrimPrefix(got, []byte("prefix"))
			if !bytes.Equal(got, want) {
				t.Fatalf("hand encoder diverged:\n got %s\nwant %s", got, want)
			}
			var back JobResponse
			if err := json.Unmarshal(got, &back); err != nil {
				t.Fatal(err)
			}
			sameFloatBits(t, emittedFloats(back), emittedFloats(resp))
		})
	}
}

// TestAppendStreamFrameGolden holds every frame shape to
// encoding/json's bytes, including rows sharing one sink's grid memo
// across frames, the done frame's null samples and an HTML-escaped
// error frame.
func TestAppendStreamFrameGolden(t *testing.T) {
	grid := []float64{0, 0.25, 1e-7, 0.5}
	golden := goldenResponses(t)
	fam := golden["family-sweep"]
	// A Monte Carlo done frame drops the samples: null on the wire.
	mc := golden["monte-carlo"]
	mc.MC = &MCResult{Mean: mc.MC.Mean, Std: mc.MC.Std, P5: mc.MC.P5, P50: mc.MC.P50, P95: mc.MC.P95}
	frames := []StreamFrame{
		{Row: &StreamRow{Index: 0, VG: 0.3, VDS: grid, IDS: []float64{0, 1e-6, 2e-6, 3e-6}}},
		{Row: &StreamRow{Index: 1, VG: 0.4, VDS: append([]float64(nil), grid...), IDS: []float64{0, 1, 2, 3}}},
		{Row: &StreamRow{Index: 0, Ref: true, VG: 0.4, VDS: grid[:3], IDS: nil}},
		{Row: &StreamRow{Index: 2, VG: -0.5, VDS: []float64{}, IDS: []float64{}}},
		{Row: &StreamRow{Index: 3, VG: 0.6, VDS: fam.Family[0].VDS, IDS: fam.Family[0].IDS}},
		{Row: &StreamRow{Index: 4, VG: 0.7, VDS: fam.Family[1].VDS, IDS: fam.Family[1].IDS}},
		{MC: &StreamMC{Done: 4, Total: 25, Mean: 1.5e-5, Std: 3e-8}},
		{MC: &StreamMC{}},
		{Done: &mc},
		{Done: &JobResponse{Kind: "family-sweep", Metrics: map[string]int64{"sweep.points": 427}, ElapsedNS: 12345}},
		{Error: &ErrorResponse{Error: `engine: <b>"bad"</b> & worse`, Class: "numerical"}},
		{},
	}
	sink := jsonBuf{}
	for i := range frames {
		want := stdEncode(t, frames[i])
		single, err := appendStreamFrame(nil, &frames[i])
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(single, want) {
			t.Fatalf("frame %d diverged:\n got %s\nwant %s", i, single, want)
		}
		// The sink's reused buffer and cross-frame grid memo.
		sink.b, sink.err = sink.b[:0], nil
		sink.streamFrame(&frames[i])
		sink.ownGrid()
		if sink.err != nil || !bytes.Equal(sink.b, want) {
			t.Fatalf("frame %d through a reused buffer diverged (%v):\n got %s\nwant %s", i, sink.err, sink.b, want)
		}
	}
}

// TestAppendRejectsNonFinite: JSON has no NaN or Inf, so the encoder
// fails — classified numerical — exactly where encoding/json does.
func TestAppendRejectsNonFinite(t *testing.T) {
	for _, bad := range []JobResponse{
		{Kind: "iv-point", IDS: math.NaN()},
		{Kind: "family-sweep", Family: []Curve{{VG: 0.5, VDS: []float64{0, 0.1}, IDS: []float64{0, math.Inf(1)}}}},
		{Kind: "monte-carlo", MC: &MCResult{Std: math.Inf(-1)}},
	} {
		if _, err := json.Marshal(bad); err == nil {
			t.Fatalf("encoding/json accepted %+v", bad)
		}
		_, err := appendJobResponse(nil, &bad)
		if !errors.Is(err, engine.ErrNumerical) {
			t.Fatalf("%s: error %v, want ErrNumerical", bad.Kind, err)
		}
	}
}

// TestNonFiniteResultAnswers422 is the regression test for the bodiless
// 200: a result JSON cannot spell used to fail encoding after the
// header had gone out. It now answers 422 with a numerical error body
// and counts as a server error; a streamed job ends in a numerical
// error frame.
func TestNonFiniteResultAnswers422(t *testing.T) {
	nan := fakeResolver{solverFunc(func(fettoy.Bias) (float64, error) { return math.NaN(), nil })}
	h := New(Config{Resolver: nan}).Handler()
	reg := telemetry.Default()
	mark := reg.CounterMark(nil)
	w := post(t, h, `{"kind": "iv-point", "model": {}, "vg": 0.5, "vd": 0.4}`)
	if w.Code != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422: %q", w.Code, w.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Class != "numerical" {
		t.Fatalf("error body %q (%v), want class numerical", w.Body, err)
	}
	if got := reg.CounterDelta(mark)[telemetry.KeyServerErrors]; got != 1 {
		t.Fatalf("server.errors moved by %d, want 1", got)
	}

	frames := postStream(t, h, `{"kind": "iv-point", "model": {}, "vg": 0.5, "vd": 0.4, "stream": true}`)
	last := frames[len(frames)-1]
	if last.Error == nil || last.Error.Class != "numerical" || last.Done != nil {
		t.Fatalf("stream did not end in a numerical error frame: %+v", frames)
	}
}

// FuzzAppendJSONFloat holds the float spelling to json.Marshal over
// arbitrary bit patterns: both encoders fail on NaN and ±Inf, and
// agree byte for byte on everything else.
func FuzzAppendJSONFloat(f *testing.F) {
	for _, x := range []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, math.Nextafter(1e-6, 0), -1e-6,
		1e21, math.Nextafter(1e21, 0), -1e21, 1e-7, 1e-100, 1e300,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		f.Add(math.Float64bits(x))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		x := math.Float64frombits(bits)
		want, wantErr := json.Marshal(x)
		got, err := appendJSONFloat([]byte("["), x)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%v (%#x): error %v, encoding/json error %v", x, bits, err, wantErr)
		}
		if err != nil {
			if !errors.Is(err, engine.ErrNumerical) || string(got) != "[" {
				t.Fatalf("%v: error %v appended %q", x, err, got)
			}
			return
		}
		if string(got[1:]) != string(want) {
			t.Fatalf("%v (%#x): got %s, encoding/json %s", x, bits, got[1:], want)
		}
	})
}

// FuzzAppendJSONString holds the strings of a served answer to
// json.Marshal: a job kind (and likewise a metrics key) passes
// through jsonenc.AppendString with its HTML characters, control
// bytes, invalid UTF-8 and JavaScript line separators.
func FuzzAppendJSONString(f *testing.F) {
	for _, s := range []string{"", "plain", `a<b>&"c"\`, "\x00\x1f\b\f\n\r\t\x7f", "\xff\xfe", "\u00e9\u2028\u2029", "\xe2\x80"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		resp := JobResponse{Kind: s, Metrics: map[string]int64{s: 1}}
		want := stdEncode(t, resp)
		got, err := appendJobResponse(nil, &resp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: got %s, encoding/json %s", s, got, want)
		}
	})
}

// BenchmarkEncodeFamilyResponse times the served Table-I answer (seven
// curves over one 61-point grid) through encoding/json, the way the
// handler used to write it, and through the hand encoder.
func BenchmarkEncodeFamilyResponse(b *testing.B) {
	resp := served(b, NewModelCache(), tableIBody)
	b.Run("encoding-json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := json.NewEncoder(io.Discard).Encode(resp); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf := getEncodeBuf()
			var err error
			if *buf, err = appendJobResponse((*buf)[:0], &resp); err != nil {
				b.Fatal(err)
			}
			putEncodeBuf(buf)
		}
	})
	b.SetBytes(int64(len(stdEncode(b, resp))))
}

// strconvJSONFloat is encoding/json's own float spelling: strconv's
// shortest digits in 'f' or 'e' layout, e-07 trimmed to e-7. It is
// the baseline BenchmarkAppendFloat times jsonenc against.
func strconvJSONFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) { //lint:allow floatcmp encoding/json's exact zero test
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// BenchmarkAppendFloat times one float of a served Table-I answer —
// the currents, which need 15 to 17 digits — through strconv as
// encoding/json spells it, and through jsonenc. ns/op is per float.
func BenchmarkAppendFloat(b *testing.B) {
	var ids []float64
	for _, c := range served(b, NewModelCache(), tableIBody).Family {
		ids = append(ids, c.IDS...)
	}
	for i, x := range ids {
		if got, want := jsonenc.AppendFloat(nil, x), strconvJSONFloat(nil, x); string(got) != string(want) {
			b.Fatalf("current %d: jsonenc %s, strconv %s", i, got, want)
		}
	}
	for _, bc := range []struct {
		name   string
		append func([]byte, float64) []byte
	}{{"strconv", strconvJSONFloat}, {"jsonenc", jsonenc.AppendFloat}} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]byte, 0, 32)
			for i := 0; i < b.N; i++ {
				dst = bc.append(dst[:0], ids[i%len(ids)])
			}
		})
	}
}
