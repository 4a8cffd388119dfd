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
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
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
