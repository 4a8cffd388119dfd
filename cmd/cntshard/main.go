// Command cntshard is the fleet front-end: a consistent-hash router
// that spreads cntserve replicas' work by model identity. Every job
// names a model (family + device preset + T/EF overrides); cntshard
// rendezvous-hashes that canonical key — the same key the backends
// cache on — over a static replica set, so all jobs for one model land
// on one replica and its charge table or piecewise fit is built once
// fleet-wide instead of once per replica.
//
//	cntshard -replicas host1:8080,host2:8080          route on :8090
//	cntshard -addr :9000 -replicas ...                route elsewhere
//	cntshard -retries 2 -backoff 100ms -replicas ...  tighter failover
//
// Endpoints:
//
//	POST /v1/jobs       route one job to its home replica (failover on
//	                    down/5xx/429 along the key's hash order)
//	GET  /healthz       the router's replica view (per-replica health)
//	GET  /metrics       Prometheus text exposition (cluster.route.*
//	                    counters, per-replica health gauges)
//	GET  /metrics.json  the JSON telemetry snapshot
//
// Responses — buffered JSON and streamed NDJSON alike — are relayed
// verbatim with per-frame flushing, plus a Cntshard-Replica header
// naming the replica that served. Replicas are health-checked with
// jittered active probes, so one that restarts re-enters rotation
// without touching the router.
//
// SIGINT/SIGTERM trigger a graceful shutdown: probes stop, the
// listener closes, in-flight relays drain (bounded by -drain).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cntfet/internal/cluster"
	"cntfet/internal/telemetry"
)

func main() {
	addr := flag.String("addr", ":8090", "listen address")
	replicas := flag.String("replicas", "", "comma-separated cntserve base URLs (required)")
	retries := flag.Int("retries", 0, "max replicas one job may try, first attempt included (0 = all)")
	backoff := flag.Duration("backoff", 50*time.Millisecond, "delay before the second attempt, doubling per retry (capped at 10x)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "active health-check period (jittered ±25%)")
	probeTimeout := flag.Duration("probe-timeout", time.Second, "deadline for one replica /healthz probe")
	maxBody := flag.Int64("max-body", 1<<20, "request body size cap in bytes (bodies are buffered for retry replay)")
	drain := flag.Duration("drain", 15*time.Second, "graceful-shutdown drain budget for in-flight relays")
	flag.Parse()

	telemetry.Enable()

	if *replicas == "" {
		fmt.Fprintln(os.Stderr, "cntshard: -replicas is required (comma-separated cntserve base URLs)")
		os.Exit(2)
	}
	rt, err := cluster.New(cluster.Config{
		Replicas:      strings.Split(*replicas, ","),
		Retries:       *retries,
		Backoff:       *backoff,
		ProbeInterval: *probeInterval,
		ProbeTimeout:  *probeTimeout,
		MaxBody:       *maxBody,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "cntshard:", err)
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	stopProbes := rt.StartProbes(ctx)
	defer stopProbes()

	srv := &http.Server{
		Addr:              *addr,
		Handler:           rt.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	//lint:allow goroutine errc is buffered (cap 1) and ListenAndServe returns exactly once, so the send never blocks
	go func() { errc <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "cntshard: routing %s across %s\n", *addr, *replicas)

	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "cntshard:", err)
		os.Exit(1)
	case <-ctx.Done():
	}
	stop()
	fmt.Fprintln(os.Stderr, "cntshard: shutting down, draining in-flight relays")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "cntshard: shutdown:", err)
		os.Exit(1)
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "cntshard:", err)
		os.Exit(1)
	}
}
