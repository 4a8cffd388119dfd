package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cntfet/internal/telemetry"
)

// decodeNDJSON parses one-record-per-line JSON into generic maps.
func decodeNDJSON(t *testing.T, data []byte) []map[string]any {
	t.Helper()
	var out []map[string]any
	for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec map[string]any
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", line, err)
		}
		out = append(out, rec)
	}
	return out
}

// TestTraceCorrelation is the end-to-end observability check: one
// POST /v1/jobs family-sweep against the real model cache produces one
// trace ID that appears in the access-log record, the job-log record,
// and the /debug/trace span ring — with the span tree reaching from
// server.request through engine.job down to the reference model's
// charge-table build, and the job record carrying Newton-iteration
// and cache-hit attribution. The same job streamed carries its trace
// ID in a Trace-Id header that names its job record.
func TestTraceCorrelation(t *testing.T) {
	tr := telemetry.DefaultTracer()
	tr.Reset()
	tr.SetEnabled(true)
	t.Cleanup(func() {
		tr.SetEnabled(false)
		tr.SetLogger(nil)
		tr.Reset()
	})

	var logBuf bytes.Buffer
	h := New(Config{AccessLog: &logBuf, Resolver: NewModelCache()}).Handler()

	body := `{
		"kind": "family-sweep",
		"model": {"family": "reference"},
		"gates": [0.45, 0.6],
		"drains": [0, 0.3, 0.6]
	}`
	resp := decodeJob(t, post(t, h, body))
	if len(resp.Family) != 2 || len(resp.Family[0].IDS) != 3 {
		t.Fatalf("family shape wrong: %+v", resp.Family)
	}

	// The NDJSON stream carries access, job and span records; the job's
	// trace ID must thread through all of them.
	records := decodeNDJSON(t, logBuf.Bytes())
	var access, job map[string]any
	for _, rec := range records {
		switch rec["event"] {
		case telemetry.LogEventAccess:
			if rec[telemetry.AttrPath] == "/v1/jobs" {
				access = rec
			}
		case telemetry.LogEventJob:
			job = rec
		}
	}
	if access == nil || job == nil {
		t.Fatalf("log stream missing access or job record:\n%s", logBuf.String())
	}
	trace, _ := access[telemetry.FieldTrace].(string)
	if trace == "" {
		t.Fatalf("access record has no trace ID: %v", access)
	}
	if got := job[telemetry.FieldTrace]; got != trace {
		t.Fatalf("job record trace %v != access trace %q", got, trace)
	}
	if iters, ok := job[telemetry.AttrNewtonIters].(float64); !ok || iters < 1 {
		t.Fatalf("job record missing Newton iterations: %v", job)
	}
	if _, ok := job[telemetry.AttrCacheHit].(bool); !ok {
		t.Fatalf("job record missing cache_hit: %v", job)
	}
	if key, _ := job[telemetry.AttrModelKey].(string); !strings.HasPrefix(key, "reference/default/") {
		t.Fatalf("job record model key %v, want reference/default/...", job[telemetry.AttrModelKey])
	}

	// /debug/trace serves the same trace's span tree, down to the
	// charge-table build the first reference job paid for.
	req := httptest.NewRequest(http.MethodGet, "/debug/trace", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("debug/trace: status %d", w.Code)
	}
	kinds := map[string]bool{}
	var build map[string]any
	for _, span := range decodeNDJSON(t, w.Body.Bytes()) {
		if span[telemetry.FieldTrace] == trace {
			kind, _ := span[telemetry.FieldKind].(string)
			kinds[kind] = true
			if kind == telemetry.SpanFettoyTableBuild {
				build, _ = span["attrs"].(map[string]any)
			}
		}
	}
	for _, want := range []string{
		telemetry.SpanServerRequest,
		telemetry.SpanEngineJob,
		telemetry.SpanFettoyTableBuild,
	} {
		if !kinds[want] {
			t.Fatalf("trace %s missing %q span; got kinds %v", trace, want, kinds)
		}
	}
	// The build span names the shared table's window: the default
	// model's EF (-0.32 eV) lies in EF band 0.
	if nodes, _ := build[telemetry.AttrTableNodes].(float64); nodes < 1 {
		t.Fatalf("table-build span has no %s: %v", telemetry.AttrTableNodes, build)
	}
	if lo, hi := build[telemetry.AttrTableUMin], build[telemetry.AttrTableUMax]; lo != tableBandUMin || hi != tableBandUMax {
		t.Fatalf("table-build span window [%v, %v], want band 0's [%g, %g]", lo, hi, tableBandUMin, tableBandUMax)
	}

	// A second identical job reuses the cached model and says so.
	logBuf.Reset()
	decodeJob(t, post(t, h, body))
	job = nil
	for _, rec := range decodeNDJSON(t, logBuf.Bytes()) {
		if rec["event"] == telemetry.LogEventJob {
			job = rec
		}
	}
	if job == nil {
		t.Fatalf("second job logged nothing:\n%s", logBuf.String())
	}
	if hit, _ := job[telemetry.AttrCacheHit].(bool); !hit {
		t.Fatalf("second job should be a cache hit: %v", job)
	}

	// The same job streamed names its trace in the Trace-Id header, and
	// the job record carries that ID: the correlation a streaming
	// client relies on.
	logBuf.Reset()
	streamBody := strings.Replace(body, `"kind"`, `"stream": true, "kind"`, 1)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(streamBody)))
	if w.Code != http.StatusOK {
		t.Fatalf("streamed job: status %d: %s", w.Code, w.Body)
	}
	streamTrace := w.Header().Get("Trace-Id")
	if streamTrace == "" {
		t.Fatal("streamed job has no Trace-Id header")
	}
	job = nil
	for _, rec := range decodeNDJSON(t, logBuf.Bytes()) {
		if rec["event"] == telemetry.LogEventJob && rec[telemetry.FieldTrace] == streamTrace {
			job = rec
		}
	}
	if job == nil {
		t.Fatalf("no job record with the streamed Trace-Id %s:\n%s", streamTrace, logBuf.String())
	}
}

// TestAccessLogPathIsJSON: a request path holding a control byte and
// an invalid UTF-8 byte still logs a valid JSON access line, whose
// path decodes back to the request's path with the invalid byte as
// U+FFFD. Go-syntax quoting wrote "\a" and "\xff" there, which no
// JSON reader accepts.
func TestAccessLogPathIsJSON(t *testing.T) {
	t.Cleanup(func() { telemetry.DefaultTracer().SetLogger(nil) })
	var logBuf bytes.Buffer
	h := New(Config{AccessLog: &logBuf, Resolver: NewModelCache()}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/jobs%07%ff", nil)
	h.ServeHTTP(httptest.NewRecorder(), req)

	line := bytes.TrimSpace(logBuf.Bytes())
	if !json.Valid(line) {
		t.Fatalf("access line is not JSON: %s", line)
	}
	var rec map[string]any
	if err := json.Unmarshal(line, &rec); err != nil {
		t.Fatal(err)
	}
	want := strings.ToValidUTF8(req.URL.Path, "\uFFFD")
	if req.URL.Path != "/v1/jobs\a\xff" || rec[telemetry.AttrPath] != want {
		t.Fatalf("logged path %q for request path %q, want %q", rec[telemetry.AttrPath], req.URL.Path, want)
	}
}
