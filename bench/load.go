package main

// load.go boots a topology on loopback and drives one repetition of
// closed-loop load against it: one client per core, each sending its
// next request only after the previous answer has fully arrived, in
// lockstep rounds, the way a sweep dashboard fans out one request per
// core and waits for every answer before the next refresh.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cntfet/internal/cluster"
	"cntfet/internal/server"
	"cntfet/internal/telemetry"
)

// service is what a topology serves: a cntserve replica or the
// router's http.Server.
type service interface {
	Serve(net.Listener) error
	Shutdown(context.Context) error
}

// running is one service listening on an ephemeral loopback port.
type running struct {
	svc  service
	url  string
	errc chan error
}

func start(svc service) (*running, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	r := &running{svc: svc, url: "http://" + l.Addr().String(), errc: make(chan error, 1)}
	//lint:allow goroutine errc is buffered (cap 1) and Serve returns exactly once, after stop's Shutdown, so the send never blocks
	go func() { r.errc <- svc.Serve(l) }()
	return r, nil
}

func (r *running) stop(ctx context.Context) error {
	err := r.svc.Shutdown(ctx)
	if serr := <-r.errc; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// topology is a booted serving stack: one cntserve replica, or the
// cluster router over two, as cntserve and cntshard run them by
// default.
type topology struct {
	url      string
	replicas []*running
	// The fleet's router: its listener, stopped first, its handler,
	// which the traced replay calls without that listener, its active
	// probes and its upstream client.
	front      *running
	router     http.Handler
	stopProbes func()
	upstream   *http.Client
}

func bootReplica() (*running, error) { return start(server.New(server.Config{})) }

func boot(fleet bool) (*topology, error) {
	if !fleet {
		r, err := bootReplica()
		if err != nil {
			return nil, err
		}
		return &topology{url: r.url, replicas: []*running{r}}, nil
	}
	t := &topology{}
	var urls []string
	for range 2 {
		r, err := bootReplica()
		if err != nil {
			t.shutdown()
			return nil, err
		}
		t.replicas = append(t.replicas, r)
		urls = append(urls, r.url)
	}
	// cntshard's defaults. The upstream client clones the default
	// transport, which is what a nil Config.Client would use, but is
	// private to this topology.
	t.upstream = &http.Client{Transport: http.DefaultTransport.(*http.Transport).Clone()}
	rt, err := cluster.New(cluster.Config{Replicas: urls, Client: t.upstream})
	if err != nil {
		t.shutdown()
		return nil, err
	}
	t.router = rt.Handler()
	t.stopProbes = rt.StartProbes(context.Background())
	if t.front, err = start(&http.Server{Handler: t.router, ReadHeaderTimeout: 10 * time.Second}); err != nil {
		t.shutdown()
		return nil, err
	}
	t.url = t.front.url
	return t, nil
}

func (t *topology) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	var err error
	if t.front != nil {
		err = t.front.stop(ctx)
	}
	if t.stopProbes != nil {
		t.stopProbes()
	}
	if t.upstream != nil {
		t.upstream.CloseIdleConnections()
	}
	for _, r := range t.replicas {
		err = errors.Join(err, r.stop(ctx))
	}
	return err
}

// newClient is the load generator's HTTP client: one keep-alive
// connection per client, no compression, and a deadline that turns a
// hung request into a failed one well inside a run's time limit.
func newClient(clients int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true,
		},
	}
}

// post sends one job and reads the whole answer into buf.
func post(ctx context.Context, c *http.Client, url string, body []byte, buf *bytes.Buffer) (int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// accept is the check every answer gets: status 200 and, for a stream,
// well-formed frames ending in done.
func accept(wl *workload, status int, resp []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", status, resp)
	}
	if wl.stream {
		return checkFrames(resp)
	}
	if len(resp) == 0 {
		return errors.New("empty response")
	}
	return nil
}

// sample is one answer kept for the oracle, checked after the
// measured window so the oracle's work never competes with the load.
type sample struct {
	body, resp []byte
	key        int
}

// checkEvery is the oracle's sampling period after the first answer
// per key.
const checkEvery = 16

// tally counts requests and failures; the first failure is kept for
// the report.
type tally struct {
	attempted, failed int64
	first             string
}

func (t *tally) fail(err error) {
	t.failed++
	if t.first == "" {
		t.first = err.Error()
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.first == "" {
		t.first = o.first
	}
}

// loadClient is one client's state; it lives for a whole repetition,
// across the measured slices.
type loadClient struct {
	tally
	lat     []time.Duration
	samples []sample
	seen    map[int]bool // keys whose first answer is sampled
	buf     bytes.Buffer // the answer being read, reused across requests
}

// do sends one request and waits for the whole answer, recording its
// latency when record is set.
func (c *loadClient) do(ctx context.Context, hc *http.Client, url string, wl *workload, seed uint64, next *atomic.Uint64, record bool) {
	if c.seen == nil {
		c.seen = map[int]bool{}
	}
	i := next.Add(1) - 1
	body, key := wl.body(seed, i)
	t0 := time.Now()
	status, err := post(ctx, hc, url, body, &c.buf)
	lat := time.Since(t0)
	c.attempted++
	if err == nil {
		err = accept(wl, status, c.buf.Bytes())
	}
	if err != nil {
		c.fail(err)
		return
	}
	if record {
		c.lat = append(c.lat, lat)
	}
	if (key >= 0 && !c.seen[key]) || i%checkEvery == 0 {
		c.seen[key] = true
		c.samples = append(c.samples, sample{body: body, resp: bytes.Clone(c.buf.Bytes()), key: key})
	}
}

// processStats is the process-wide state a measured window is the
// difference of.
type processStats struct {
	mallocs, totalAlloc uint64
	gcCPU, totalCPU     float64
	counters            map[string]int64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func readProcessStats() processStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return processStats{
		mallocs:    ms.Mallocs,
		totalAlloc: ms.TotalAlloc,
		gcCPU:      s[0].Value.Float64(),
		totalCPU:   s[1].Value.Float64(),
		counters:   telemetry.Default().Snapshot().Counters,
	}
}

// window sums the differences of process snapshots taken around the
// measured slices.
type window struct {
	mallocs, allocBytes uint64
	counters            map[string]int64
}

func (w *window) add(a, b processStats) {
	d := window{mallocs: b.mallocs - a.mallocs, allocBytes: b.totalAlloc - a.totalAlloc, counters: map[string]int64{}}
	for k, v := range b.counters {
		d.counters[k] = v - a.counters[k]
	}
	w.merge(d)
}

func (w *window) merge(o window) {
	w.mallocs += o.mallocs
	w.allocBytes += o.allocBytes
	if w.counters == nil {
		w.counters = map[string]int64{}
	}
	for k, d := range o.counters {
		w.counters[k] += d
	}
}

// repResult is one repetition's measurement. Times are as measured;
// speed is the machine-speed probe's rate during the measured slices.
// setups holds each set-up's seconds and setupSpeeds the probe's rate
// just before it.
type repResult struct {
	setups, setupSpeeds []float64
	setupHeapMB         float64
	rps, p50ms, p99ms   float64
	speed               float64
	allocKBPerReq       float64
	completed, beyond99 int
	win                 window
	// gcCPU and totalCPU span the whole measured phase: the runtime
	// accounts CPU time at GC boundaries, not per slice.
	gcCPU, totalCPU float64
	tally           tally
	checked         int
	keysChecked     int
	// Traced repetitions only: the span ring read back after set-up and
	// after the measured slices, and the spans the ring dropped meanwhile.
	setupSpans, loadSpans []telemetry.SpanData
	drops                 int64
}

// repConfig is the shape of one repetition.
type repConfig struct {
	clients        int
	warm, measured time.Duration
	seed           uint64
	traced         bool
	probe          *speedProbe
}

// sliceLength is the target length of one measured load slice; a
// probe slice follows each, so the probe sees the machine the load saw
// (probe.go).
const (
	sliceLength = 200 * time.Millisecond
	probeLength = 25 * time.Millisecond
)

// setupsPerRep is how many times a repetition sets up a fresh topology.
// Set-up takes 10-100 ms, short enough for the machine's drift to swing
// one timing by a quarter, so each repetition reports the median of
// several; the last topology carries the load.
const setupsPerRep = 3

// setUp boots a topology and sends it one verified request per warm
// key, counting failures in t.
func setUp(ctx context.Context, wl *workload, o *oracle, seed uint64, hc *http.Client, t *tally) (*topology, error) {
	topo, err := boot(wl.fleet)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	for _, body := range wl.warm(seed) {
		t.attempted++
		status, err := post(ctx, hc, topo.url, body, &buf)
		if err == nil {
			err = accept(wl, status, buf.Bytes())
		}
		if err == nil {
			err = o.verify(ctx, body, buf.Bytes(), wl.stream)
		}
		if err != nil {
			t.fail(fmt.Errorf("set-up: %w", err))
		}
	}
	return topo, nil
}

// heapAlloc is the live heap. The second GC empties the sync.Pool
// victim caches the first one fills, so pooled buffers left over from
// earlier load do not count.
func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runRep sets up fresh topologies (boot plus warm keys), runs the
// unmeasured then the measured load against the last one, shuts it
// down and checks the sampled answers against the oracle. The measured
// load runs in slices; after each, the clients pause while the
// machine-speed probe runs.
func runRep(ctx context.Context, wl *workload, o *oracle, cfg repConfig) (repResult, error) {
	var res repResult
	tracer := telemetry.DefaultTracer()
	if cfg.traced {
		tracer.Reset()
		tracer.SetEnabled(true)
		defer tracer.SetEnabled(false)
	}

	hc := newClient(cfg.clients)
	defer hc.CloseIdleConnections()
	var topo *topology
	for k := range setupsPerRep {
		if topo != nil {
			if err := topo.shutdown(); err != nil {
				return res, fmt.Errorf("shutting down: %w", err)
			}
			hc.CloseIdleConnections()
		}
		res.setupSpeeds = append(res.setupSpeeds, cfg.probe.rate(ctx, 2*probeLength))
		heap0 := heapAlloc()
		t0 := time.Now()
		var err error
		if topo, err = setUp(ctx, wl, o, cfg.seed, hc, &res.tally); err != nil {
			return res, err
		}
		res.setups = append(res.setups, time.Since(t0).Seconds())
		if k == setupsPerRep-1 {
			res.setupHeapMB = (float64(heapAlloc()) - float64(heap0)) / (1 << 20)
		}
	}
	if cfg.traced {
		res.setupSpans = tracer.Spans()
	}

	clients := make([]loadClient, cfg.clients)
	var next atomic.Uint64
	// drive runs rounds for d: in each, every client sends one request,
	// and the round ends when the last answer is in. Free-running
	// clients drift in and out of step, so how often two requests share
	// the cores changes from one repetition to the next and the median
	// latency jumps between the alone and the shared mode; in lockstep
	// every request shares the machine the same way.
	drive := func(d time.Duration, record bool) time.Duration {
		start := time.Now()
		for time.Since(start) < d {
			var wg sync.WaitGroup
			for i := range clients {
				wg.Add(1)
				// Returns after its one request.
				go func(c *loadClient) {
					defer wg.Done()
					c.do(ctx, hc, topo.url, wl, cfg.seed, &next, record)
				}(&clients[i])
			}
			wg.Wait()
		}
		return time.Since(start)
	}
	drive(cfg.warm, false)
	if cfg.traced {
		tracer.Reset()
		res.drops = -tracer.Dropped()
	}
	slices := max(1, int(cfg.measured/sliceLength))
	var loadTime time.Duration
	var speeds []float64
	first := readProcessStats()
	before := first
	for range slices {
		loadTime += drive(cfg.measured/time.Duration(slices), true)
		after := readProcessStats()
		res.win.add(before, after)
		speeds = append(speeds, cfg.probe.rate(ctx, probeLength))
		before = readProcessStats()
	}
	res.gcCPU, res.totalCPU = before.gcCPU-first.gcCPU, before.totalCPU-first.totalCPU
	res.speed = mean(speeds)
	if cfg.traced {
		res.loadSpans = tracer.Spans()
		res.drops += tracer.Dropped()
	}
	if err := topo.shutdown(); err != nil {
		return res, fmt.Errorf("shutting down: %w", err)
	}

	var lat []time.Duration
	var samples []sample
	for i := range clients {
		res.tally.add(clients[i].tally)
		lat = append(lat, clients[i].lat...)
		samples = append(samples, clients[i].samples...)
	}
	keys := map[int]bool{}
	for _, s := range samples {
		if err := o.verify(ctx, s.body, s.resp, wl.stream); err != nil {
			res.tally.fail(fmt.Errorf("oracle: %w", err))
		}
		keys[s.key] = true
	}
	res.checked = len(samples)
	res.keysChecked = len(keys)

	res.completed = len(lat)
	res.rps = float64(len(lat)) / loadTime.Seconds()
	if len(lat) > 0 {
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		res.p50ms = ms(percentile(lat, 0.50))
		res.p99ms = ms(percentile(lat, 0.99))
		res.beyond99 = len(lat) - rank(len(lat), 0.99)
		res.allocKBPerReq = float64(res.win.allocBytes) / 1024 / float64(len(lat))
	}
	return res, nil
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// rank is the 1-based nearest-rank index of quantile q in n samples.
func rank(n int, q float64) int {
	r := int(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// percentile is the nearest-rank quantile of sorted durations.
func percentile(sorted []time.Duration, q float64) time.Duration {
	return sorted[rank(len(sorted), q)-1]
}
