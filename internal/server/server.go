// Package server is the long-running front-end of the library: a
// stdlib-only HTTP service that decodes JSON job requests into
// engine.Request, runs them through engine.Run, and answers with
// engine.Result as JSON. It closes the ROADMAP's "sharded / batched
// sweep service" loop: PR 2's batched sweep engine is the compute
// core, PR 3's job API is the request surface, and this package adds
// the production plumbing a multi-tenant deployment needs —
//
//   - a keyed model cache (cache.go) so models are built once per
//     (family, device, T, EF) and charge tables once per (device, T,
//     EF band), and shared;
//   - admission control: a concurrency-limiting semaphore answering
//     429 at saturation, and a request body-size cap;
//   - per-request deadlines and client-disconnect cancellation, both
//     threaded into the job context so sweeps abort promptly;
//   - the engine error taxonomy mapped onto HTTP statuses
//     (ErrInvalidRequest→400, ErrCanceled→499, ErrNumerical→422);
//   - graceful shutdown draining in-flight jobs; and
//   - request-scoped observability: every request runs under a
//     telemetry span (the trace ID threads through engine → sweep →
//     charge-table build), the NDJSON access and job logs carry that
//     trace ID, /debug/trace serves the completed-span ring,
//     /metrics serves Prometheus text exposition (latency and
//     job-duration histograms included) and /metrics.json keeps the
//     JSON snapshot the CLIs consume.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"cntfet/internal/engine"
	"cntfet/internal/telemetry"
)

// StatusClientClosedRequest is the non-standard HTTP status (nginx's
// 499) answering a job whose client disconnected — or whose deadline
// expired — before the result was ready. net/http cannot deliver it to
// the vanished client; it exists for access logs and the status
// counters.
const StatusClientClosedRequest = 499

// Config tunes a Server. The zero value serves on :8080 with
// production-shaped defaults.
type Config struct {
	// Addr is the listen address (ListenAndServe). Empty means :8080.
	Addr string
	// Timeout is the per-request job deadline. Zero means 60s;
	// negative disables the deadline (client disconnect still
	// cancels).
	Timeout time.Duration
	// MaxBody caps the request body size in bytes. Zero means 1 MiB.
	MaxBody int64
	// MaxInFlight bounds concurrently running jobs; excess requests
	// are shed with 429. Zero means GOMAXPROCS.
	MaxInFlight int
	// Resolver resolves wire model descriptions. Nil means a fresh
	// ModelCache; tests substitute fakes.
	Resolver Resolver
	// AccessLog, when set, receives the structured NDJSON access/job
	// log: one "access" record per request, one "job" record per
	// /v1/jobs request that reached the engine, and — when span
	// tracing is enabled — one "span" record per completed span. All
	// records of one request share a trace ID.
	AccessLog io.Writer
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8080"
	}
	if c.Timeout == 0 {
		c.Timeout = 60 * time.Second
	}
	if c.MaxBody <= 0 {
		c.MaxBody = 1 << 20
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = runtime.GOMAXPROCS(0)
	}
	if c.Resolver == nil {
		c.Resolver = NewModelCache()
	}
	return c
}

// Server is the HTTP front-end. Create one with New; drive it with
// ListenAndServe or Serve and stop it with Shutdown.
type Server struct {
	cfg     Config
	sem     chan struct{}
	http    *http.Server
	log     *telemetry.Logger
	start   time.Time
	flights flightGroup
	// drainCtx ends when Shutdown finishes draining (or gives up). It
	// is the base of every request context the listener hands out, so
	// no job — buffered, coalesced or streamed — outlives the drain.
	drainCtx    context.Context
	drainCancel context.CancelFunc
}

// New builds a Server from the config.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxInFlight),
		start: time.Now(),
	}
	s.drainCtx, s.drainCancel = context.WithCancel(context.Background()) //lint:allow ctxpropagate the drain context is rooted in the server's lifetime, not any request
	if cfg.AccessLog != nil {
		s.log = telemetry.NewLogger(cfg.AccessLog)
		// Completed spans join the same NDJSON stream, so one file
		// correlates access lines, job lines and the span tree.
		telemetry.DefaultTracer().SetLogger(s.log)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleJob)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", handleMetrics)
	mux.HandleFunc("GET /metrics.json", handleMetricsJSON)
	mux.HandleFunc("GET /debug/trace", handleDebugTrace)
	s.http = &http.Server{
		Addr:              cfg.Addr,
		Handler:           s.observe(mux),
		ReadHeaderTimeout: 10 * time.Second,
		BaseContext:       func(net.Listener) context.Context { return s.drainCtx },
	}
	return s
}

// Handler exposes the route table including the observability
// middleware (handler-level tests go through it without a listener).
func (s *Server) Handler() http.Handler { return s.http.Handler }

// ListenAndServe serves on the configured address until Shutdown.
// Like http.Server, it returns http.ErrServerClosed after a clean
// shutdown.
func (s *Server) ListenAndServe() error { return s.http.ListenAndServe() }

// Serve serves on an existing listener (tests bind an ephemeral port
// first and read it back).
func (s *Server) Serve(l net.Listener) error { return s.http.Serve(l) }

// Shutdown stops accepting connections and drains in-flight jobs,
// waiting until they finish or ctx expires. In-flight job contexts
// stay live during the drain: a request already computing completes
// and its client gets the answer. Once the drain ends — either way —
// every request context still open is cancelled (they all derive from
// drainCtx), so no buffered, coalesced or streamed job keeps computing
// past an over-budget shutdown: each answers 499 (or ends its stream
// with an error frame) within one cancellation check.
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.http.Shutdown(ctx)
	s.drainCancel()
	return err
}

// statusWriter captures the response status for the access log and
// the request span.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Unwrap lets http.ResponseController reach the underlying writer's
// Flusher — streamed responses flush through this wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// observe is the observability middleware every route runs under: it
// roots the request's span (when tracing is enabled), times the
// exchange into the server.request_seconds histogram, and writes one
// access-log record carrying the trace ID.
func (s *Server) observe(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, span := telemetry.StartSpan(r.Context(), telemetry.SpanServerRequest)
		rec := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		if span != nil {
			// Tracing is on: callees find the request span in the context.
			// Off, the context is unchanged and the request is not copied.
			r = r.WithContext(ctx)
		}
		next.ServeHTTP(rec, r)
		d := time.Since(start)
		telemetry.Default().
			Histogram(telemetry.KeyServerRequestSeconds, telemetry.LatencyBuckets).
			Observe(d.Seconds())
		span.Set(
			telemetry.String(telemetry.AttrMethod, r.Method),
			telemetry.String(telemetry.AttrPath, r.URL.Path),
			telemetry.Int(telemetry.AttrStatus, int64(rec.status)),
		)
		span.End()
		s.log.Log(telemetry.LogEventAccess,
			telemetry.String(telemetry.FieldTrace, span.TraceID()),
			telemetry.String(telemetry.AttrMethod, r.Method),
			telemetry.String(telemetry.AttrPath, r.URL.Path),
			telemetry.Int(telemetry.AttrStatus, int64(rec.status)),
			telemetry.Dur(telemetry.FieldDurNS, d),
		)
	})
}

// handleJob is POST /v1/jobs: admission control, decode, resolve,
// run, answer — all under the request span the middleware rooted.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	reg := telemetry.Default()
	reg.Counter(telemetry.KeyServerRequests).Inc()

	// Admission first, before reading the body: a saturated server
	// sheds load at the cheapest possible point.
	select {
	case s.sem <- struct{}{}:
		defer func() { <-s.sem }()
	default:
		reg.Counter(telemetry.KeyServerSaturated).Inc()
		reg.Counter(telemetry.KeyServerErrors).Inc()
		writeError(w, http.StatusTooManyRequests, "saturated",
			fmt.Errorf("server: all %d job slots busy", cap(s.sem)))
		return
	}

	var jr JobRequest
	if err := decodeBody(w, r, s.cfg.MaxBody, &jr); err != nil {
		status := http.StatusBadRequest
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			status = http.StatusRequestEntityTooLarge
		}
		reg.Counter(telemetry.KeyServerErrors).Inc()
		writeError(w, status, "invalid-request", fmt.Errorf("decoding request: %w", err))
		return
	}

	// The job context is the request context — net/http cancels it on
	// client disconnect, Shutdown when the drain is over — tightened by
	// the per-request deadline. It is established before model
	// resolution, so a cache-miss build is attributed to (and bounded
	// by) the request that pays for it.
	ctx := r.Context()
	if s.cfg.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.Timeout)
		defer cancel()
	}
	span := telemetry.SpanFrom(ctx)
	span.Set(telemetry.String(telemetry.AttrJobKind, jr.Kind))

	// Each model description is resolved once; the cache lookup, the
	// coalescing key and the logged model key all read the result.
	model, ref := identify(jr.Model), identify(jr.Ref)
	req, meta, err := jr.toEngine(ctx, s.cfg.Resolver, model, ref)
	if err != nil {
		reg.Counter(telemetry.KeyServerErrors).Inc()
		writeError(w, http.StatusBadRequest, "invalid-request", err)
		return
	}
	if meta.Resolved && span != nil {
		span.Set(
			telemetry.String(telemetry.AttrModelKey, meta.modelKey()),
			telemetry.Bool(telemetry.AttrCacheHit, meta.CacheHit),
		)
	}

	if wantsStream(jr, r) {
		// Streamed responses bypass coalescing: the byte stream belongs
		// to this connection alone. The deadline context still applies.
		s.streamJob(w, r.WithContext(ctx), jr, req, meta)
		return
	}

	// Buffered identical requests in flight at the same time share one
	// engine run (coalesce.go), keyed by the job's canonical identity;
	// the leader runs it here, under ctx.
	key := getEncodeBuf()
	defer putEncodeBuf(key)
	*key = appendCoalesceKey((*key)[:0], &jr, model, ref)
	res, coalesced, err := s.flights.run(ctx, *key, req)
	if coalesced {
		span.Set(telemetry.Bool(telemetry.AttrCoalesced, true))
	}
	if err == nil {
		// The answer is encoded before anything is written, so a result
		// JSON cannot spell (a NaN current) still gets a status: 422.
		resp := toWire(jr.Kind, res)
		buf := getEncodeBuf()
		defer putEncodeBuf(buf)
		if *buf, err = appendJobResponse((*buf)[:0], &resp); err == nil {
			s.logJob(ctx, jr.Kind, meta, http.StatusOK, res)
			writeBody(w, http.StatusOK, *buf)
			return
		}
		err = fmt.Errorf("server: encoding %s response: %w", jr.Kind, err)
	}
	status, class := statusOf(err)
	if status == StatusClientClosedRequest {
		reg.Counter(telemetry.KeyServerCanceled).Inc()
	} else {
		reg.Counter(telemetry.KeyServerErrors).Inc()
	}
	s.logJob(ctx, jr.Kind, meta, status, res)
	writeError(w, status, class, err)
}

// logJob writes the per-job NDJSON record: one line per job that
// reached the engine, sharing the access log's trace ID and carrying
// the job's cost attribution (duration, Newton iterations, sweep
// points, model identity and cache outcome).
func (s *Server) logJob(ctx context.Context, kind string, meta resolveMeta, status int, res engine.Result) {
	if s.log == nil {
		return
	}
	fields := []telemetry.Field{
		telemetry.String(telemetry.FieldTrace, telemetry.TraceIDFrom(ctx)),
		telemetry.String(telemetry.AttrJobKind, kind),
		telemetry.Int(telemetry.AttrStatus, int64(status)),
		telemetry.Dur(telemetry.FieldDurNS, res.Elapsed),
		telemetry.Int(telemetry.AttrNewtonIters, res.Metrics[telemetry.KeyFettoyNewtonIters]),
		telemetry.Int(telemetry.AttrPoints, res.Metrics[telemetry.KeySweepPoints]),
	}
	if meta.Resolved {
		fields = append(fields,
			telemetry.String(telemetry.AttrModelKey, meta.modelKey()),
			telemetry.Bool(telemetry.AttrCacheHit, meta.CacheHit),
		)
	}
	s.log.Log(telemetry.LogEventJob, fields...)
}

// statusOf maps the engine error taxonomy onto HTTP statuses via
// errors.Is, so the classification established by engine.JobError
// travels to the client unchanged. The httpstatus analyzer reconciles
// the arms below against every //taxonomy:class sentinel, both ways.
//
//taxonomy:statusmap
func statusOf(err error) (status int, class string) {
	switch {
	case errors.Is(err, engine.ErrInvalidRequest):
		return http.StatusBadRequest, "invalid-request"
	case errors.Is(err, engine.ErrCanceled):
		return StatusClientClosedRequest, "canceled"
	case errors.Is(err, engine.ErrNumerical):
		return http.StatusUnprocessableEntity, "numerical"
	}
	return http.StatusInternalServerError, "internal"
}

// Health is the GET /healthz response body: enough build and load
// identity to tell replicas apart in a fleet.
type Health struct {
	Status string `json:"status"`
	// GoVersion is the runtime's version; Revision the VCS commit the
	// binary was built from (with "+dirty" for modified trees), empty
	// when build info carries none (go test binaries).
	GoVersion string `json:"go_version"`
	Revision  string `json:"revision,omitempty"`
	// UptimeSeconds counts from Server construction.
	UptimeSeconds float64 `json:"uptime_s"`
	// InFlight and MaxInFlight describe current job-slot occupancy.
	InFlight    int `json:"in_flight"`
	MaxInFlight int `json:"max_in_flight"`
}

// buildRevision resolves the VCS revision once per process.
var buildRevision = sync.OnceValue(func() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty && rev != "" {
		rev += "+dirty"
	}
	return rev
})

// handleHealthz reports liveness plus build info, uptime and in-flight
// job count — what a fleet scheduler or a human needs to identify a
// replica, instead of the former bare 200.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, Health{
		Status:        "ok",
		GoVersion:     runtime.Version(),
		Revision:      buildRevision(),
		UptimeSeconds: time.Since(s.start).Seconds(),
		InFlight:      len(s.sem),
		MaxInFlight:   cap(s.sem),
	})
}

// handleMetrics serves the process-wide telemetry snapshot in
// Prometheus text exposition format — counters as *_total, timers as
// summaries, histograms (request latency, job duration, Newton
// iterations per solve) with declared buckets.
func handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", telemetry.PromContentType)
	if err := telemetry.Default().WritePrometheus(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleMetricsJSON keeps the pre-Prometheus JSON snapshot — the
// format the CLIs print with -metrics — available to existing tooling.
func handleMetricsJSON(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := telemetry.Default().WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleDebugTrace serves the bounded ring of completed spans as
// NDJSON, newest last — the server-side twin of the CLIs' -trace
// output. Empty (with tracing disabled) is a valid response.
func handleDebugTrace(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := telemetry.DefaultTracer().WriteJSON(w); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// writeJSON answers with body encoded by encoding/json. The body is
// encoded before the header goes out, so an unencodable value answers
// 500 instead of a bodiless status.
func writeJSON(w http.ResponseWriter, status int, body any) {
	b, err := json.Marshal(body)
	if err != nil {
		http.Error(w, fmt.Sprintf("server: encoding response: %v", err), http.StatusInternalServerError)
		return
	}
	writeBody(w, status, append(b, '\n'))
}

// writeBody sends an encoded JSON answer in one Write. The body is
// complete before the header goes out, so it carries its length: an
// answer larger than net/http's pre-chunking buffer (a Table-I sweep)
// would otherwise go out chunked.
func writeBody(w http.ResponseWriter, status int, b []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(b)))
	w.WriteHeader(status)
	// Write errors are undeliverable (the client is mid-read or gone);
	// nothing useful remains to be done with them.
	_, _ = w.Write(b)
}

func writeError(w http.ResponseWriter, status int, class string, err error) {
	writeJSON(w, status, ErrorResponse{Error: err.Error(), Class: class})
}
