package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cntfet/internal/device"
	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// post sends one job request body to a handler and returns the
// recorded response.
func post(t testing.TB, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

func decodeJob(t testing.TB, w *httptest.ResponseRecorder) JobResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var jr JobResponse
	if err := json.Unmarshal(w.Body.Bytes(), &jr); err != nil {
		t.Fatalf("decoding response: %v: %s", err, w.Body)
	}
	return jr
}

// TestJobRoundTrips drives every wire job kind end-to-end through the
// handler with real models and a shared cache.
func TestJobRoundTrips(t *testing.T) {
	h := New(Config{}).Handler()

	t.Run("iv-point", func(t *testing.T) {
		jr := decodeJob(t, post(t, h, `{
			"kind": "iv-point",
			"model": {"family": "model2"},
			"vg": 0.5, "vd": 0.4
		}`))
		if !(jr.IDS > 0) {
			t.Fatalf("degenerate IDS: %+v", jr)
		}
		if jr.OP == nil || jr.OP.IDS != jr.IDS {
			t.Fatalf("operating point missing or inconsistent: %+v", jr)
		}
	})

	var family []Curve
	t.Run("family-sweep", func(t *testing.T) {
		jr := decodeJob(t, post(t, h, `{
			"kind": "family-sweep",
			"model": {"family": "model2"},
			"gates": [0.4, 0.6],
			"drains": [0, 0.3, 0.6]
		}`))
		if len(jr.Family) != 2 || len(jr.Family[0].IDS) != 3 {
			t.Fatalf("degenerate family: %+v", jr)
		}
		family = jr.Family
	})

	t.Run("rms-compare/ref-model", func(t *testing.T) {
		jr := decodeJob(t, post(t, h, `{
			"kind": "rms-compare",
			"model": {"family": "model2"},
			"ref": {"family": "model1"},
			"gates": [0.4, 0.6],
			"drains": [0, 0.3, 0.6]
		}`))
		if len(jr.RMSPercent) != 2 || len(jr.RefFamily) != 2 {
			t.Fatalf("degenerate compare: %+v", jr)
		}
	})

	t.Run("rms-compare/ref-family", func(t *testing.T) {
		// The model compared against its own precomputed sweep must
		// score zero RMS on every curve.
		body, err := json.Marshal(JobRequest{
			Kind:      "rms-compare",
			Model:     &ModelSpec{Family: FamilyModel2},
			RefFamily: family,
			Gates:     []float64{0.4, 0.6},
			Drains:    []float64{0, 0.3, 0.6},
		})
		if err != nil {
			t.Fatal(err)
		}
		jr := decodeJob(t, post(t, h, string(body)))
		for i, rms := range jr.RMSPercent {
			if rms != 0 {
				t.Fatalf("self-compare rms[%d] = %g, want 0", i, rms)
			}
		}
	})

	t.Run("monte-carlo", func(t *testing.T) {
		jr := decodeJob(t, post(t, h, `{
			"kind": "monte-carlo",
			"model": {"family": "model2"},
			"vg": 0.5, "vd": 0.4,
			"ef_sigma": 0.02, "samples": 25, "seed": 7
		}`))
		if jr.MC == nil || len(jr.MC.Samples) != 25 || !(jr.MC.Mean > 0) {
			t.Fatalf("degenerate MC: %+v", jr)
		}
	})
}

// TestBadRequests checks the client-error corner: malformed JSON,
// unknown kinds/families/fields (a "strategy" field among them),
// invalid physics, wrong routes.
func TestBadRequests(t *testing.T) {
	h := New(Config{}).Handler()
	for name, tc := range map[string]struct {
		body string
		want int
	}{
		"malformed JSON":   {`{"kind": `, http.StatusBadRequest},
		"unknown field":    {`{"kind": "iv-point", "modle": {}}`, http.StatusBadRequest},
		"unknown kind":     {`{"kind": "netlist", "model": {"family": "model2"}}`, http.StatusBadRequest},
		"missing model":    {`{"kind": "iv-point"}`, http.StatusBadRequest},
		"unknown family":   {`{"kind": "iv-point", "model": {"family": "model9"}}`, http.StatusBadRequest},
		"unknown device":   {`{"kind": "iv-point", "model": {"family": "model2", "device": "exotic"}}`, http.StatusBadRequest},
		"invalid physics":  {`{"kind": "iv-point", "model": {"family": "model2", "t": -4}}`, http.StatusBadRequest},
		"unknown strategy": {`{"kind": "family-sweep", "model": {"family": "model2"}, "gates": [0.5], "drains": [0.1], "strategy": "serial"}`, http.StatusBadRequest},
		"empty grid":       {`{"kind": "family-sweep", "model": {"family": "model2"}}`, http.StatusBadRequest},
		"both refs":        {`{"kind": "rms-compare", "model": {"family": "model2"}, "ref": {"family": "model1"}, "ref_family": [], "gates": [0.5], "drains": [0.1]}`, http.StatusBadRequest},
		"empty ref_family": {`{"kind": "rms-compare", "model": {"family": "model2"}, "ref_family": [], "gates": [0.5], "drains": [0.1]}`, http.StatusBadRequest},
		"zero samples":     {`{"kind": "monte-carlo", "model": {"family": "model2"}}`, http.StatusBadRequest},
		"repeat field":     {`{"kind": "family-sweep", "model": {"family": "model2"}, "gates": [0.5], "drains": [0.1], "repeat": 2}`, http.StatusBadRequest},
	} {
		t.Run(name, func(t *testing.T) {
			w := post(t, h, tc.body)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.want, w.Body)
			}
			var er ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("error body not structured: %s", w.Body)
			}
		})
	}

	t.Run("wrong method", func(t *testing.T) {
		req := httptest.NewRequest(http.MethodGet, "/v1/jobs", nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusMethodNotAllowed {
			t.Fatalf("GET /v1/jobs: status %d, want 405", w.Code)
		}
	})

	t.Run("oversized body", func(t *testing.T) {
		small := New(Config{MaxBody: 64}).Handler()
		w := post(t, small, `{"kind": "iv-point", "model": {"family": "model2"}, "drains": [`+
			strings.Repeat("0.1,", 100)+`0.1]}`)
		if w.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413: %s", w.Code, w.Body)
		}
	})
}

// TestJobSizeBounds: a negative workers, a workers above maxWorkers
// and a samples above maxSamples answer 400 invalid-request from
// toEngine, before the model resolves or the engine runs, so no sweep
// goroutine or sample buffer is ever sized from them. Values at the
// bounds still pass, and 0 workers still means GOMAXPROCS.
func TestJobSizeBounds(t *testing.T) {
	var solves atomic.Int64
	h := New(Config{Resolver: fakeResolver{solverFunc(func(fettoy.Bias) (float64, error) {
		solves.Add(1)
		return 1, nil
	})}}).Handler()
	sweep := func(workers int) string {
		return fmt.Sprintf(`{"kind": "family-sweep", "model": {"family": "model2"}, "gates": [0.5], "drains": [0.1, 0.2], "workers": %d}`, workers)
	}
	for name, body := range map[string]string{
		"negative workers":      sweep(-1),
		"workers over the cap":  sweep(maxWorkers + 1),
		"streamed over the cap": strings.Replace(sweep(maxWorkers+1), `"kind"`, `"stream": true, "kind"`, 1),
		"samples over the cap":  fmt.Sprintf(`{"kind": "monte-carlo", "model": {"family": "model2"}, "samples": %d}`, maxSamples+1),
	} {
		t.Run(name, func(t *testing.T) {
			w := post(t, h, body)
			var er ErrorResponse
			if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusBadRequest || er.Class != "invalid-request" {
				t.Fatalf("status %d, body %s: want 400 invalid-request", w.Code, w.Body)
			}
			if n := solves.Load(); n != 0 {
				t.Fatalf("%d solves ran for a rejected body", n)
			}
		})
	}

	for _, workers := range []int{0, 1, maxWorkers} {
		if got := decodeJob(t, post(t, h, sweep(workers))); len(got.Family) != 1 {
			t.Fatalf("workers %d: %d curves, want 1", workers, len(got.Family))
		}
	}
	jr := JobRequest{Kind: "monte-carlo", Model: &ModelSpec{Family: FamilyModel2}, Samples: maxSamples}
	req, _, err := jr.toEngine(context.Background(), nil, identify(jr.Model), identify(jr.Ref))
	if err != nil || req.Samples != maxSamples {
		t.Fatalf("samples at the cap: %+v, %v", req.Samples, err)
	}
}

// blockingSolver is a test model whose solves wait on gate signals:
// started closes on the first call, and every call then sleeps in
// short slices so sweep cancellation lands promptly.
type blockingSolver struct {
	started chan struct{}
	once    atomic.Bool
	delay   time.Duration
	calls   atomic.Int64
}

func (b *blockingSolver) IDS(bias fettoy.Bias) (float64, error) {
	if b.once.CompareAndSwap(false, true) {
		close(b.started)
	}
	b.calls.Add(1)
	time.Sleep(b.delay)
	return bias.VG * bias.VD, nil
}

type fakeResolver struct{ m device.Solver }

func (f fakeResolver) Resolve(context.Context, ModelSpec) (device.Solver, bool, error) {
	return f.m, false, nil
}

// sweepBody is a family-sweep request big enough to stay in flight
// while a test interferes with it (800 points x delay).
const sweepBody = `{
	"kind": "family-sweep",
	"model": {"family": "model2"},
	"gates": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
	"drains": [0, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5,
	           0.51, 0.52, 0.53, 0.54, 0.55, 0.56, 0.57, 0.58, 0.59, 0.6,
	           0.61, 0.62, 0.63, 0.64, 0.65, 0.66, 0.67, 0.68, 0.69, 0.7,
	           0.71, 0.72, 0.73, 0.74, 0.75, 0.76, 0.77, 0.78, 0.79, 0.8,
	           0.81, 0.82, 0.83, 0.84, 0.85, 0.86, 0.87, 0.88, 0.89, 0.9,
	           0.91, 0.92, 0.93, 0.94, 0.95, 0.96, 0.97, 0.98, 0.99, 1.0,
	           1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09, 1.1,
	           1.11, 1.12, 1.13, 1.14, 1.15, 1.16, 1.17, 1.18, 1.19, 1.2,
	           1.21, 1.22, 1.23, 1.24, 1.25, 1.26, 1.27, 1.28, 1.29, 1.3,
	           1.31, 1.32, 1.33, 1.34, 1.35, 1.36, 1.37, 1.38, 1.39, 1.4],
	"workers": 1
}`

// TestSaturationSheds429 checks admission control: with one job slot
// busy, the next request is shed with 429 and the saturation counter
// moves; after the slot frees, requests are admitted again.
func TestSaturationSheds429(t *testing.T) {
	m := &blockingSolver{started: make(chan struct{}), delay: 2 * time.Millisecond}
	srv := New(Config{MaxInFlight: 1, Resolver: fakeResolver{m}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	saturatedBefore := telemetry.Default().Counter(telemetry.KeyServerSaturated).Value()

	firstDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(sweepBody))
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("first request: status %d", resp.StatusCode)
			}
		}
		firstDone <- err
	}()
	<-m.started

	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429: %s", resp.StatusCode, body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Class != "saturated" {
		t.Fatalf("429 body not classified: %s", body)
	}
	if got := telemetry.Default().Counter(telemetry.KeyServerSaturated).Value(); got <= saturatedBefore {
		t.Fatalf("server.saturated did not move: %d -> %d", saturatedBefore, got)
	}

	if err := <-firstDone; err != nil {
		t.Fatal(err)
	}
	// The slot is free again: a small request must be admitted.
	resp, err = http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(
		`{"kind": "family-sweep", "model": {"family": "model2"}, "gates": [0.5], "drains": [0.1]}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-drain request: status %d, want 200", resp.StatusCode)
	}
}

// TestClientDisconnectCancels checks the cancellation path end to end:
// a client that walks away mid-sweep must abort the job promptly
// (ErrCanceled -> server.canceled counted) and leak no goroutines.
func TestClientDisconnectCancels(t *testing.T) {
	m := &blockingSolver{started: make(chan struct{}), delay: 2 * time.Millisecond}
	srv := New(Config{Resolver: fakeResolver{m}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	canceledBefore := telemetry.Default().Counter(telemetry.KeyServerCanceled).Value()
	goroutinesBefore := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		done <- err
	}()
	<-m.started
	cancel()
	if err := <-done; err == nil {
		t.Fatal("client Do returned nil error after context cancel")
	}

	// The handler finishes asynchronously after the disconnect; the
	// canceled counter moving is the proof the job saw ErrCanceled.
	deadline := time.Now().Add(5 * time.Second)
	for telemetry.Default().Counter(telemetry.KeyServerCanceled).Value() <= canceledBefore &&
		time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := telemetry.Default().Counter(telemetry.KeyServerCanceled).Value(); got <= canceledBefore {
		t.Fatalf("server.canceled did not move after client disconnect: %d -> %d", canceledBefore, got)
	}
	calls := m.calls.Load()
	if calls == 0 || calls >= 800 {
		t.Fatalf("evaluated %d of 800 points; cancellation did not land mid-sweep", calls)
	}

	// No leaked workers or handler goroutines once the dust settles.
	for runtime.NumGoroutine() > goroutinesBefore+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", goroutinesBefore, n)
	}
}

// TestGracefulShutdownDrains checks the drain contract: Shutdown
// called mid-sweep waits for the in-flight job, whose client still
// receives its 200.
func TestGracefulShutdownDrains(t *testing.T) {
	m := &blockingSolver{started: make(chan struct{}), delay: time.Millisecond}
	srv := New(Config{Resolver: fakeResolver{m}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	reqDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(fmt.Sprintf("http://%s/v1/jobs", l.Addr()),
			"application/json", strings.NewReader(sweepBody))
		if err == nil {
			var jr JobResponse
			derr := json.NewDecoder(resp.Body).Decode(&jr)
			resp.Body.Close()
			switch {
			case resp.StatusCode != http.StatusOK:
				err = fmt.Errorf("in-flight request: status %d", resp.StatusCode)
			case derr != nil:
				err = derr
			case len(jr.Family) != 8:
				err = fmt.Errorf("in-flight request: %d curves, want 8", len(jr.Family))
			}
		}
		reqDone <- err
	}()
	<-m.started

	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	if err := <-reqDone; err != nil {
		t.Fatalf("in-flight request broken by shutdown: %v", err)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// TestModelCacheReuse checks that two requests naming the same model
// build it once, and that distinct keys build separately.
func TestModelCacheReuse(t *testing.T) {
	cache := NewModelCache()
	h := New(Config{Resolver: cache}).Handler()
	reg := telemetry.Default()
	hitsBefore := reg.Counter(telemetry.KeyServerCacheHits).Value()
	missesBefore := reg.Counter(telemetry.KeyServerCacheMisses).Value()

	body := `{"kind": "iv-point", "model": {"family": "model2"}, "vg": 0.5, "vd": 0.4}`
	first := decodeJob(t, post(t, h, body))
	second := decodeJob(t, post(t, h, body))
	if first.IDS != second.IDS {
		t.Fatalf("cache served a different model: %g != %g", first.IDS, second.IDS)
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("cache holds %d models, want 1", n)
	}
	if got := reg.Counter(telemetry.KeyServerCacheMisses).Value() - missesBefore; got != 1 {
		t.Fatalf("server.cache.misses delta = %d, want 1", got)
	}
	if got := reg.Counter(telemetry.KeyServerCacheHits).Value() - hitsBefore; got != 1 {
		t.Fatalf("server.cache.hits delta = %d, want 1", got)
	}

	// A different temperature is a different physical model.
	decodeJob(t, post(t, h, `{"kind": "iv-point", "model": {"family": "model2", "t": 450}, "vg": 0.5, "vd": 0.4}`))
	if n := cache.Len(); n != 2 {
		t.Fatalf("cache holds %d models after distinct key, want 2", n)
	}
}

// TestDefaultFamilyIsClosedForm pins the closed-form-first serving
// default: a request that omits "family" resolves to model1, shares
// one cache entry with an explicit model1 request, and answers
// bit-identically to it.
func TestDefaultFamilyIsClosedForm(t *testing.T) {
	cache := NewModelCache()
	h := New(Config{Resolver: cache}).Handler()

	implicit := decodeJob(t, post(t, h, `{"kind": "iv-point", "model": {}, "vg": 0.5, "vd": 0.4}`))
	explicit := decodeJob(t, post(t, h, `{"kind": "iv-point", "model": {"family": "model1"}, "vg": 0.5, "vd": 0.4}`))
	if implicit.IDS != explicit.IDS {
		t.Fatalf("default family answered %g, explicit model1 %g", implicit.IDS, explicit.IDS)
	}
	if n := cache.Len(); n != 1 {
		t.Fatalf("cache holds %d models, want 1 (default and explicit model1 must share a key)", n)
	}
	if got, want := (ModelSpec{}).Key(), (ModelSpec{Family: FamilyModel1}).Key(); got != want {
		t.Fatalf("spec keys diverge: %q vs %q", got, want)
	}

	// The default-family sweep must be closed-form work: no reference
	// Newton iterations or quadrature evaluations in the job's metrics.
	jr := decodeJob(t, post(t, h, `{
		"kind": "family-sweep",
		"model": {},
		"gates": [0.4, 0.6],
		"drains": [0, 0.3, 0.6]
	}`))
	if len(jr.Family) != 2 {
		t.Fatalf("degenerate family: %+v", jr)
	}
	for _, k := range []string{"fettoy.newton_iters", "fettoy.quad_points"} {
		if v := jr.Metrics[k]; v != 0 {
			t.Fatalf("default family did reference work: %s = %d", k, v)
		}
	}
}

// TestHealthAndMetrics checks the operational endpoints: /healthz
// serves build and load identity, /metrics serves valid Prometheus
// text exposition with the request-latency histogram, /metrics.json
// keeps the JSON snapshot for the CLIs.
func TestHealthAndMetrics(t *testing.T) {
	h := New(Config{}).Handler()

	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("healthz: %d %q", w.Code, w.Body)
	}
	var hz Health
	if err := json.Unmarshal(w.Body.Bytes(), &hz); err != nil {
		t.Fatalf("healthz not JSON: %v: %s", err, w.Body)
	}
	if hz.Status != "ok" || hz.GoVersion != runtime.Version() || hz.MaxInFlight < 1 {
		t.Fatalf("healthz fields wrong: %+v", hz)
	}
	if hz.UptimeSeconds < 0 || hz.InFlight != 0 {
		t.Fatalf("healthz load fields wrong: %+v", hz)
	}

	// One job first, so the exposition carries server.* counters and
	// the middleware has observed at least one request latency.
	post(t, h, `{"kind": "iv-point", "model": {"family": "model2"}, "vg": 0.5, "vd": 0.4}`)

	req = httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != telemetry.PromContentType {
		t.Fatalf("metrics content type %q, want %q", ct, telemetry.PromContentType)
	}
	body := w.Body.String()
	if err := telemetry.ValidatePrometheus(strings.NewReader(body)); err != nil {
		t.Fatalf("metrics not valid Prometheus exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		"cntfet_server_requests_total",
		"cntfet_server_request_seconds_bucket",
		`le="+Inf"`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}

	req = httptest.NewRequest(http.MethodGet, "/metrics.json", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("metrics.json: status %d", w.Code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
		t.Fatalf("metrics.json not a snapshot: %v", err)
	}
	if snap.Counters[telemetry.KeyServerRequests] < 1 {
		t.Fatalf("metrics.json snapshot missing server.requests: %v", snap.Counters)
	}
}

// TestAdmissionAccountingOnEarlyRejects pins the bookkeeping of
// requests rejected before they reach the engine: malformed-JSON 400s
// and oversized-body 413s must release their job slot (a leak would
// wedge a MaxInFlight=1 server permanently) and be counted exactly
// once each in server.requests and the request-latency histogram.
// The sequence is saturate-reject-recover: early rejects, then a
// blocking job that must still be admitted, a 429 while it runs, and
// a final 200 after it drains — with every counter delta accounted.
func TestAdmissionAccountingOnEarlyRejects(t *testing.T) {
	m := &blockingSolver{started: make(chan struct{}), delay: 10 * time.Millisecond}
	srv := New(Config{MaxInFlight: 1, MaxBody: 2048, Resolver: fakeResolver{m}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reg := telemetry.Default()
	requestsBefore := reg.Counter(telemetry.KeyServerRequests).Value()
	errorsBefore := reg.Counter(telemetry.KeyServerErrors).Value()
	saturatedBefore := reg.Counter(telemetry.KeyServerSaturated).Value()
	latencyBefore := reg.Histogram(telemetry.KeyServerRequestSeconds, telemetry.LatencyBuckets).Count()

	do := func(body string) (int, error) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode, nil
	}
	must := func(body string, want int) {
		t.Helper()
		code, err := do(body)
		if err != nil {
			t.Fatal(err)
		}
		if code != want {
			t.Fatalf("status %d, want %d", code, want)
		}
	}

	// Early rejects: two malformed bodies and one over the body cap.
	// Each acquires the job slot and must give it back on the way out.
	must(`{"kind": `, http.StatusBadRequest)
	must(`{"kind": `, http.StatusBadRequest)
	must(`{"kind": "iv-point", "model": {}, "gates": [`+strings.Repeat("0.1,", 1024)+`0.1]}`,
		http.StatusRequestEntityTooLarge)

	// The single slot must still be free: this blocking sweep has to be
	// admitted and start solving (a leaked slot would 429 it).
	drains := make([]string, 40)
	for i := range drains {
		drains[i] = fmt.Sprintf("%g", 0.01*float64(i+1))
	}
	blockBody := `{"kind": "family-sweep", "model": {}, "gates": [0.5], "drains": [` +
		strings.Join(drains, ",") + `], "workers": 1}`
	blockDone := make(chan error, 1)
	go func() {
		code, err := do(blockBody)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("blocking job: status %d, want 200", code)
		}
		blockDone <- err
	}()
	<-m.started

	// Saturated now — and sheds before reading the body, so even a
	// malformed request answers 429, not 400.
	must(`{"kind": `, http.StatusTooManyRequests)

	if err := <-blockDone; err != nil {
		t.Fatal(err)
	}
	// Recovered: the slot drained and a normal job is served again.
	must(`{"kind": "iv-point", "model": {}, "vg": 0.5, "vd": 0.4}`, http.StatusOK)

	// Exactly six requests passed: each counted once in server.requests
	// and once in the latency histogram (no double counting), with four
	// errors (2x400 + 413 + 429) and one saturation. The middleware
	// observes latency just after the handler returns, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for reg.Histogram(telemetry.KeyServerRequestSeconds, telemetry.LatencyBuckets).Count()-latencyBefore < 6 &&
		time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if d := reg.Counter(telemetry.KeyServerRequests).Value() - requestsBefore; d != 6 {
		t.Fatalf("server.requests delta = %d, want 6", d)
	}
	if d := reg.Histogram(telemetry.KeyServerRequestSeconds, telemetry.LatencyBuckets).Count() - latencyBefore; d != 6 {
		t.Fatalf("request_seconds count delta = %d, want 6", d)
	}
	if d := reg.Counter(telemetry.KeyServerErrors).Value() - errorsBefore; d != 4 {
		t.Fatalf("server.errors delta = %d, want 4", d)
	}
	if d := reg.Counter(telemetry.KeyServerSaturated).Value() - saturatedBefore; d != 1 {
		t.Fatalf("server.saturated delta = %d, want 1", d)
	}
}

// TestTimeoutCancels checks the per-request deadline: a job slower
// than the configured timeout is aborted with 499 and counted as
// canceled.
func TestTimeoutCancels(t *testing.T) {
	m := &blockingSolver{started: make(chan struct{}), delay: 2 * time.Millisecond}
	srv := New(Config{Timeout: 30 * time.Millisecond, Resolver: fakeResolver{m}})
	w := post(t, srv.Handler(), sweepBody)
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("timed-out job answered %d, want %d: %s", w.Code, StatusClientClosedRequest, w.Body)
	}
	var er ErrorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Class != "canceled" {
		t.Fatalf("499 body not classified: %s", w.Body)
	}
}

// TestBufferedAnswerHasContentLength: a buffered answer is encoded
// whole before the header goes out, so it carries its length — a
// Table-I sweep (far above net/http's 2 KiB pre-chunking buffer) is not
// sent chunked.
func TestBufferedAnswerHasContentLength(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(tableIBody))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, err %v: %s", resp.StatusCode, err, body)
	}
	if len(body) <= 2048 {
		t.Fatalf("Table-I answer is only %d bytes; the test needs one above the pre-chunking buffer", len(body))
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length %q, body %d bytes", got, len(body))
	}
	if len(resp.TransferEncoding) != 0 {
		t.Fatalf("answer sent with Transfer-Encoding %v", resp.TransferEncoding)
	}
}
