// Command cntserve is the long-running sweep service: an HTTP
// front-end that accepts JSON job requests — the same iv-point,
// family-sweep, rms-compare and monte-carlo jobs the CLIs run — and
// serves them through engine.Run at circuit-simulator rates. Models
// are named over the wire (family + device preset + T/EF) and built
// once into a keyed cache, so a client sweeping the same device pays
// the charge-table tabulation or piecewise fit exactly once.
//
//	cntserve                              serve on :8080
//	cntserve -addr localhost:9090         serve elsewhere
//	cntserve -inflight 4 -timeout 30s     tighter admission control
//	cntserve -trace -log access.ndjson    request tracing + NDJSON logs
//	cntserve -debug-addr localhost:6060   pprof profiles + expvar
//	cntserve -selftest                    one-shot smoke: serve on an
//	                                      ephemeral port, POST buffered
//	                                      and streamed family-sweeps,
//	                                      scrape the operational
//	                                      endpoints, exit
//
// Endpoints:
//
//	POST /v1/jobs       run one job (see internal/server's wire schema)
//	GET  /healthz       liveness + build info, uptime, in-flight jobs
//	GET  /metrics       Prometheus text exposition (counters, latency
//	                    and job-duration histograms)
//	GET  /metrics.json  the JSON snapshot the CLIs consume
//	GET  /debug/trace   completed spans as NDJSON (with -trace)
//
// Streaming: a job posted with "stream": true (or with "Accept:
// application/x-ndjson") answers as chunked NDJSON, one frame per
// result row, flushed as computed — `curl --no-buffer` shows rows
// arriving while the sweep runs.
//
// -log writes the structured NDJSON access/job log ("-" for stderr);
// every record of one request carries the same trace ID. -trace turns
// on span recording, which adds the span tree to the log stream and
// populates /debug/trace. -debug-addr starts a side HTTP server with
// net/http/pprof profiles and the telemetry snapshot at /debug/vars
// (expvar key "cntfet"), matching cntmc.
//
// SIGINT/SIGTERM trigger a graceful shutdown: the listener closes,
// in-flight jobs drain (bounded by -drain), and the process exits 0.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"cntfet/internal/server"
	"cntfet/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	timeout := flag.Duration("timeout", 60*time.Second, "per-request job deadline (negative disables)")
	maxBody := flag.Int64("max-body", 1<<20, "request body size cap in bytes")
	inflight := flag.Int("inflight", 0, "max concurrently running jobs (0 = GOMAXPROCS); excess gets 429")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget for in-flight jobs")
	logPath := flag.String("log", "", "write the NDJSON access/job log to this file (\"-\" = stderr)")
	trace := flag.Bool("trace", false, "record request spans: populates /debug/trace and adds span records to -log")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof and expvar telemetry on this address (e.g. localhost:6060)")
	selftest := flag.Bool("selftest", false, "start on an ephemeral port, exercise the job and operational endpoints, exit")
	flag.Parse()

	// A server wants its work observable: enable the registry so
	// /metrics reports solver counters, not just the server.* keys.
	telemetry.Enable()
	if *trace {
		telemetry.DefaultTracer().SetEnabled(true)
	}
	if *debugAddr != "" {
		expvar.Publish("cntfet", expvar.Func(func() any {
			return telemetry.Default().Snapshot()
		}))
		go func() {
			// DefaultServeMux already carries the pprof and expvar
			// handlers via their package imports.
			if err := http.ListenAndServe(*debugAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "cntserve: debug server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "cntserve: debug server on http://%s/debug/pprof/ and /debug/vars\n", *debugAddr)
	}

	var accessLog io.Writer
	switch *logPath {
	case "":
	case "-":
		accessLog = os.Stderr
	default:
		f, err := os.OpenFile(*logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cntserve: opening log:", err)
			os.Exit(1)
		}
		defer f.Close()
		accessLog = f
	}

	if *selftest {
		// The selftest verifies the observability contract too, so it
		// runs with tracing on and the log captured in memory.
		telemetry.DefaultTracer().SetEnabled(true)
		var logBuf syncBuffer
		cfg := server.Config{
			Timeout:     *timeout,
			MaxBody:     *maxBody,
			MaxInFlight: *inflight,
			AccessLog:   &logBuf,
		}
		if err := runSelftest(cfg, &logBuf, *drain); err != nil {
			fmt.Fprintln(os.Stderr, "cntserve: selftest:", err)
			os.Exit(1)
		}
		fmt.Println("cntserve: selftest ok")
		return
	}

	srv := server.New(server.Config{
		Addr:        *addr,
		Timeout:     *timeout,
		MaxBody:     *maxBody,
		MaxInFlight: *inflight,
		AccessLog:   accessLog,
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	//lint:allow goroutine errc is buffered (cap 1) and Serve returns exactly once, so the send never blocks
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "cntserve: serving on %s\n", *addr)

	select {
	case err := <-errc:
		// The listener failed before any signal (port in use, ...).
		fmt.Fprintln(os.Stderr, "cntserve:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "cntserve: shutting down, draining in-flight jobs")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "cntserve: shutdown:", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cntserve:", err)
		os.Exit(1)
	}
}

// syncBuffer is an in-memory log sink safe to read while the server's
// logger is still writing (the selftest polls it mid-flight).
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// runSelftest is the `make servesmoke` body: bind an ephemeral port,
// serve, POST one family-sweep over the paper's nominal device, and
// assert (a) a 200 with a non-empty family, (b) /metrics is valid
// Prometheus text exposition carrying the server counters and latency
// histogram, (c) /metrics.json still serves the JSON snapshot,
// (d) /healthz reports identity, (e) the job's trace ID correlates
// the access log, the job log and the /debug/trace span ring, and (f)
// the same sweep streamed as NDJSON delivers the buffered rows
// bit-for-bit frame by frame under a correlatable Trace-Id header.
func runSelftest(cfg server.Config, logBuf *syncBuffer, drain time.Duration) error {
	srv := server.New(cfg)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	//lint:allow goroutine errc is buffered (cap 1) and Serve returns exactly once, so the send never blocks
	go func() { errc <- srv.Serve(l) }()

	body := `{
		"kind": "family-sweep",
		"model": {"family": "model2"},
		"gates": [0.3, 0.45, 0.6],
		"drains": [0, 0.2, 0.4, 0.6]
	}`
	base := fmt.Sprintf("http://%s", l.Addr())
	client := &http.Client{Timeout: 30 * time.Second}
	resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /v1/jobs: status %d: %s", resp.StatusCode, raw)
	}
	var jr server.JobResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	if len(jr.Family) != 3 || len(jr.Family[0].IDS) != 4 {
		return fmt.Errorf("degenerate family in response: %s", raw)
	}

	get := func(path string) ([]byte, string, error) {
		resp, err := client.Get(base + path)
		if err != nil {
			return nil, "", err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, "", err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, "", fmt.Errorf("GET %s: status %d: %s", path, resp.StatusCode, raw)
		}
		return raw, resp.Header.Get("Content-Type"), nil
	}

	// (b) Prometheus conformance — the scrape a real Prometheus would do.
	prom, ct, err := get("/metrics")
	if err != nil {
		return err
	}
	if ct != telemetry.PromContentType {
		return fmt.Errorf("/metrics content type %q, want %q", ct, telemetry.PromContentType)
	}
	if err := telemetry.ValidatePrometheus(bytes.NewReader(prom)); err != nil {
		return fmt.Errorf("/metrics is not valid Prometheus exposition: %w", err)
	}
	for _, want := range []string{"cntfet_server_requests_total", "cntfet_server_request_seconds_bucket"} {
		if !bytes.Contains(prom, []byte(want)) {
			return fmt.Errorf("/metrics missing %s:\n%s", want, prom)
		}
	}

	// (c) The JSON snapshot moved, not vanished.
	rawSnap, _, err := get("/metrics.json")
	if err != nil {
		return err
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal(rawSnap, &snap); err != nil {
		return fmt.Errorf("/metrics.json not a snapshot: %w", err)
	}
	if snap.Counters[telemetry.KeyServerRequests] < 1 {
		return fmt.Errorf("/metrics.json missing server.requests: %v", snap.Counters)
	}

	// (d) Identity in the health probe.
	rawHz, _, err := get("/healthz")
	if err != nil {
		return err
	}
	var hz server.Health
	if err := json.Unmarshal(rawHz, &hz); err != nil {
		return fmt.Errorf("/healthz not JSON: %w", err)
	}
	if hz.Status != "ok" || hz.GoVersion == "" || hz.MaxInFlight < 1 {
		return fmt.Errorf("/healthz fields wrong: %s", rawHz)
	}

	// (e) One trace ID across access log, job log and the span ring.
	// The access record is written after the response, so briefly poll.
	trace, err := waitForTrace(logBuf)
	if err != nil {
		return err
	}
	rawSpans, _, err := get("/debug/trace")
	if err != nil {
		return err
	}
	kinds := map[string]bool{}
	for _, line := range bytes.Split(bytes.TrimSpace(rawSpans), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var span map[string]any
		if err := json.Unmarshal(line, &span); err != nil {
			return fmt.Errorf("/debug/trace bad line %q: %w", line, err)
		}
		if span[telemetry.FieldTrace] == trace {
			kind, _ := span[telemetry.FieldKind].(string)
			kinds[kind] = true
		}
	}
	for _, want := range []string{telemetry.SpanServerRequest, telemetry.SpanEngineJob} {
		if !kinds[want] {
			return fmt.Errorf("trace %s missing %q span in /debug/trace; got %v", trace, want, kinds)
		}
	}

	// (f) The same sweep streamed: each row a flushed NDJSON frame,
	// bit-identical to the buffered family, done frame last, trace ID
	// in the response header for log correlation.
	if err := checkStreamedSweep(client, base, body, jr, logBuf); err != nil {
		return err
	}

	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

// checkStreamedSweep re-runs a family sweep with "stream": true and
// asserts the NDJSON contract: one row frame per gate bias carrying
// exactly the buffered rows, a trailing done frame without the family,
// and a Trace-Id header whose ID appears in the job log.
func checkStreamedSweep(client *http.Client, base, body string, buffered server.JobResponse, logBuf *syncBuffer) error {
	streamBody := strings.Replace(body, `"kind"`, `"stream": true, "kind"`, 1)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", strings.NewReader(streamBody))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("streamed job: status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		return fmt.Errorf("streamed job content type %q, want application/x-ndjson", ct)
	}
	trace := resp.Header.Get("Trace-Id")
	if trace == "" {
		return fmt.Errorf("streamed job missing Trace-Id header")
	}

	var rows int
	var done bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var frame server.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			return fmt.Errorf("bad stream frame %q: %w", sc.Text(), err)
		}
		switch {
		case frame.Row != nil:
			if done {
				return fmt.Errorf("row frame after done frame")
			}
			if frame.Row.Index != rows {
				return fmt.Errorf("row %d arrived with index %d", rows, frame.Row.Index)
			}
			want := buffered.Family[rows]
			for j := range want.IDS {
				if frame.Row.IDS[j] != want.IDS[j] { //lint:allow floatcmp streamed rows must match buffered bit-for-bit
					return fmt.Errorf("streamed row %d point %d: %g, buffered %g",
						rows, j, frame.Row.IDS[j], want.IDS[j])
				}
			}
			rows++
		case frame.Done != nil:
			if len(frame.Done.Family) != 0 {
				return fmt.Errorf("done frame re-buffers the family")
			}
			done = true
		case frame.Error != nil:
			return fmt.Errorf("streamed job failed mid-stream: %s", frame.Error.Error)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if rows != len(buffered.Family) || !done {
		return fmt.Errorf("stream delivered %d of %d rows (done=%v)", rows, len(buffered.Family), done)
	}

	// The header's trace ID must land in the job log — that is the
	// correlation a streaming client relies on.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if strings.Contains(logBuf.String(), trace) {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("trace %s from Trace-Id header absent from the log", trace)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// waitForTrace scans the NDJSON log for the job's access and job
// records and returns their shared trace ID. The access record lands
// just after the response is sent, so the scan retries briefly.
func waitForTrace(logBuf *syncBuffer) (string, error) {
	deadline := time.Now().Add(2 * time.Second)
	for {
		var access, job string
		for _, line := range strings.Split(logBuf.String(), "\n") {
			if line == "" {
				continue
			}
			var rec map[string]any
			if err := json.Unmarshal([]byte(line), &rec); err != nil {
				return "", fmt.Errorf("bad log line %q: %w", line, err)
			}
			trace, _ := rec[telemetry.FieldTrace].(string)
			switch rec["event"] {
			case telemetry.LogEventAccess:
				if rec[telemetry.AttrPath] == "/v1/jobs" {
					access = trace
				}
			case telemetry.LogEventJob:
				job = trace
			}
		}
		if access != "" && access == job {
			return access, nil
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("no correlated access+job log records (access=%q job=%q):\n%s",
				access, job, logBuf.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
