package main

// replay.go is the traced pass's per-layer ledger. It replays a
// workload's first generated bodies serially through the serving
// stack's layers, calling each layer's public functions from outside
// and wrapping every call in a bench-owned span:
//
//	server.handler   (*server.Server).Handler().ServeHTTP
//	server.chain     the handler's work, one layer call at a time:
//	  server.decode  json.Decoder (DisallowUnknownFields) into JobRequest
//	  server.key     server.RouteKey
//	  server.resolve (*server.ModelCache).Resolve
//	  engine.run     engine.Run
//	    <kernel>     the model's solve/row kernel, through a wrapper
//	    fettoy.prebuild  a reference model's deferred table build
//	  server.encode  json.Encoder over JobResponse or StreamFrames
//	server.resolve_hit  Resolve again, now on a warm key
//	sweep.family     the scheduler engine.Auto resolves to
//	  <kernel>
//	cluster.handler  (*cluster.Router).Handler().ServeHTTP over live replicas
//
// Bench spans are a local type rather than telemetry spans: the
// program's span kinds are a registry this benchmark does not extend.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"sync"
	"time"

	"cntfet/internal/core"
	"cntfet/internal/device"
	"cntfet/internal/engine"
	"cntfet/internal/fettoy"
	"cntfet/internal/server"
	"cntfet/internal/sweep"
	"cntfet/internal/telemetry"
)

// benchSpan is one timed call. Times are nanoseconds since the span
// log's epoch; Parent is 0 for a root.
type benchSpan struct {
	Trace  uint64 `json:"trace"`
	Span   uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s benchSpan) dur() int64 { return s.End - s.Start }

// spanLog keeps spans in memory; kernels call it from sweep workers,
// so it is safe for concurrent use.
type spanLog struct {
	epoch time.Time
	mu    sync.Mutex
	last  uint64
	spans []benchSpan
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// begin opens a span and returns its ID and the function that ends it.
func (l *spanLog) begin(trace, parent uint64, name string) (uint64, func()) {
	l.mu.Lock()
	l.last++
	id := l.last
	l.mu.Unlock()
	start := time.Since(l.epoch).Nanoseconds()
	return id, func() {
		end := time.Since(l.epoch).Nanoseconds()
		l.mu.Lock()
		l.spans = append(l.spans, benchSpan{Trace: trace, Span: id, Parent: parent, Name: name, Start: start, End: end})
		l.mu.Unlock()
	}
}

// selfTimes returns each span's duration minus the part of its
// interval covered by the union of its children's intervals. Children
// may overlap each other (parallel sweep workers) and are clipped to
// the parent's interval.
func selfTimes(spans []benchSpan) map[uint64]int64 {
	children := map[uint64][]benchSpan{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[s.Span] {
			lo, hi := max(c.Start, s.Start), min(c.End, s.End)
			if lo < hi {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		self[s.Span] = s.dur() - covered
	}
	return self
}

// kernelSpans names the span every wrapped model call opens.
type kernelSpans struct {
	log           *spanLog
	trace, parent uint64
	name          string
}

func (k kernelSpans) open() func() {
	_, end := k.log.begin(k.trace, k.parent, k.name)
	return end
}

// kernelModel is the capability set both library model families
// implement; the wrappers below expose exactly that set, plus
// ContextBuilder for the reference model, so the engine and the sweep
// scheduler take the same paths through a wrapped model as through the
// bare one.
type kernelModel interface {
	device.Device
	device.WarmStarter
	device.BatchSolver
	device.GradientSolver
}

type tracedKernel[M kernelModel] struct {
	m M
	kernelSpans
}

func (t tracedKernel[M]) IDS(b fettoy.Bias) (float64, error) {
	defer t.open()()
	return t.m.IDS(b)
}

func (t tracedKernel[M]) Solve(b fettoy.Bias) (fettoy.OperatingPoint, error) {
	defer t.open()()
	return t.m.Solve(b)
}

func (t tracedKernel[M]) IDSFrom(b fettoy.Bias, guess float64) (float64, float64, error) {
	defer t.open()()
	return t.m.IDSFrom(b, guess)
}

func (t tracedKernel[M]) IDSBatch(bias []fettoy.Bias, out []float64) error {
	defer t.open()()
	return t.m.IDSBatch(bias, out)
}

func (t tracedKernel[M]) Conductances(b fettoy.Bias) (float64, float64, float64, error) {
	defer t.open()()
	return t.m.Conductances(b)
}

// tracedRef adds the reference model's deferred table build.
type tracedRef struct {
	tracedKernel[*fettoy.Model]
}

func (t tracedRef) BuildContext(ctx context.Context) error {
	_, end := t.log.begin(t.trace, t.parent, "fettoy.prebuild")
	defer end()
	return t.m.BuildContext(ctx)
}

// traced wraps a resolved model so its kernel calls become children of
// the given span.
func traced(m device.Solver, log *spanLog, trace, parent uint64) device.Solver {
	switch x := m.(type) {
	case *core.Model:
		return tracedKernel[*core.Model]{x, kernelSpans{log, trace, parent, "core.kernel"}}
	case *fettoy.Model:
		return tracedRef{tracedKernel[*fettoy.Model]{x, kernelSpans{log, trace, parent, "fettoy.kernel"}}}
	}
	return m
}

// wireResponse is the server's buffered answer for a result (the
// fields the benchmark's two job kinds populate).
func wireResponse(kind string, res engine.Result) server.JobResponse {
	out := server.JobResponse{Kind: kind, IDS: res.IDS, Metrics: res.Metrics, ElapsedNS: int64(res.Elapsed)}
	for _, c := range res.Family {
		out.Family = append(out.Family, server.Curve{VG: c.VG, VDS: c.VDS, IDS: c.IDS})
	}
	if res.OP != (fettoy.OperatingPoint{}) {
		out.OP = &server.OperatingPoint{VSC: res.OP.VSC, IDS: res.OP.IDS, QS: res.OP.QS, QD: res.OP.QD}
	}
	return out
}

// answer is one replayed request's engine output, kept for the
// encoder's allocation count.
type answer struct {
	kind string
	res  engine.Result
	rows []engine.RowEvent
}

// encode writes the answer the way the server does: one JSON object,
// or one NDJSON frame per row and a done frame.
func (a answer) encode(buf *bytes.Buffer, streamed bool) error {
	enc := json.NewEncoder(buf)
	if !streamed {
		return enc.Encode(wireResponse(a.kind, a.res))
	}
	for _, r := range a.rows {
		frame := server.StreamFrame{Row: &server.StreamRow{
			Index: r.Index, Ref: r.Ref, VG: r.Curve.VG, VDS: r.Curve.VDS, IDS: r.Curve.IDS,
		}}
		if err := enc.Encode(frame); err != nil {
			return err
		}
	}
	done := wireResponse(a.kind, a.res)
	return enc.Encode(server.StreamFrame{Done: &done})
}

// collectRows is the replay's stand-in for the server's NDJSON sink.
type collectRows struct{ rows []engine.RowEvent }

func (c *collectRows) Emit(ev engine.Event) error {
	if ev.Row != nil {
		c.rows = append(c.rows, *ev.Row)
	}
	return nil
}

// replayStats is what the replay measures beyond its spans.
type replayStats struct {
	log          *spanLog
	misses       map[uint64]bool // server.resolve spans that built a model
	grid         map[uint64]bool // traces whose request has a sweep grid
	points       int64           // bias points sweep.family evaluated
	respBytes    []int
	encodeAllocs float64
	cluster      map[string]int64 // cluster.* counter deltas
	tally        tally
	// speed is the machine-speed probe's rate around the replay.
	speed float64
}

// replayer holds the replay's serving stack: a replica handler called
// without a listener, the chain's own model cache, and a live
// two-replica fleet behind a router handler.
type replayer struct {
	wl      *workload
	handler http.Handler
	local   *server.Server
	cache   *server.ModelCache
	fleet   *topology
	st      replayStats
	answers []answer
	specs   []server.ModelSpec // the model each replayed request named
}

// keepAnswers bounds how many engine results the replay keeps for the
// encoder's allocation count.
const keepAnswers = 256

func newReplayer(wl *workload) (*replayer, error) {
	fleet, err := boot(true)
	if err != nil {
		return nil, err
	}
	local := server.New(server.Config{})
	return &replayer{
		wl:      wl,
		handler: local.Handler(),
		local:   local,
		cache:   server.NewModelCache(),
		fleet:   fleet,
		st: replayStats{
			log:    newSpanLog(),
			misses: map[uint64]bool{},
			grid:   map[uint64]bool{},
		},
	}, nil
}

func (rp *replayer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	return errors.Join(rp.local.Shutdown(ctx), rp.fleet.shutdown())
}

func jobRequest(ctx context.Context, body []byte) *http.Request {
	r := httptest.NewRequestWithContext(ctx, http.MethodPost, "/v1/jobs", bytes.NewReader(body))
	r.Header.Set("Content-Type", "application/json")
	return r
}

// one replays request i through every layer.
func (rp *replayer) one(ctx context.Context, i uint64, body []byte) error {
	log := rp.st.log
	tr := i + 1

	rec, hreq := httptest.NewRecorder(), jobRequest(ctx, body)
	_, end := log.begin(tr, 0, "server.handler")
	rp.handler.ServeHTTP(rec, hreq)
	end()
	if err := accept(rp.wl, rec.Code, rec.Body.Bytes()); err != nil {
		return fmt.Errorf("server handler: %w", err)
	}

	chain, endChain := log.begin(tr, 0, "server.chain")
	_, end = log.begin(tr, chain, "server.decode")
	jr, err := decodeJob(body)
	end()
	if err != nil {
		return err
	}
	rp.specs = append(rp.specs, *jr.Model)
	_, end = log.begin(tr, chain, "server.key")
	_ = server.RouteKey(jr)
	end()
	resolve, end := log.begin(tr, chain, "server.resolve")
	m, hit, err := rp.cache.Resolve(ctx, *jr.Model)
	end()
	if err != nil {
		return err
	}
	rp.st.misses[resolve] = !hit
	eng, end := log.begin(tr, chain, "engine.run")
	req := engineRequest(jr, traced(m, log, tr, eng))
	sink := &collectRows{}
	if rp.wl.stream {
		req.Sink = sink
	}
	res, err := engine.Run(ctx, req)
	end()
	if err != nil {
		return err
	}
	a := answer{kind: jr.Kind, res: res, rows: sink.rows}
	var buf bytes.Buffer
	_, end = log.begin(tr, chain, "server.encode")
	err = a.encode(&buf, rp.wl.stream)
	end()
	endChain()
	if err != nil {
		return err
	}
	rp.st.respBytes = append(rp.st.respBytes, buf.Len())
	if len(rp.answers) < keepAnswers {
		rp.answers = append(rp.answers, a)
	}

	_, end = log.begin(tr, 0, "server.resolve_hit")
	_, _, err = rp.cache.Resolve(ctx, *jr.Model)
	end()
	if err != nil {
		return err
	}

	// A request without a grid runs the scheduler on its one bias point.
	gates, drains := jr.Gates, jr.Drains
	rp.st.grid[tr] = len(gates) > 0
	if len(gates) == 0 {
		gates, drains = []float64{jr.VG}, []float64{jr.VD}
	}
	fam, end := log.begin(tr, 0, "sweep.family")
	err = sweep.FamilyParallelTo(ctx, traced(m, log, tr, fam), gates, drains, 0, func(int, sweep.Curve) error { return nil })
	end()
	if err != nil {
		return err
	}
	rp.st.points += int64(len(gates) * len(drains))

	rec, hreq = httptest.NewRecorder(), jobRequest(ctx, body)
	_, end = log.begin(tr, 0, "cluster.handler")
	rp.fleet.router.ServeHTTP(rec, hreq)
	end()
	if err := accept(rp.wl, rec.Code, rec.Body.Bytes()); err != nil {
		return fmt.Errorf("cluster handler: %w", err)
	}
	return nil
}

// maxModelProbes bounds the distinct models the fit, table-build and
// kernel probes run on.
const maxModelProbes = 9

// specDevice returns the preset device a spec names (the benchmark
// only uses the default preset).
func specDevice(spec server.ModelSpec) fettoy.Device {
	dev := fettoy.Default()
	if spec.T != 0 { //lint:allow floatcmp zero value keeps the preset temperature, as the server does
		dev.T = spec.T
	}
	if spec.EF != nil {
		dev.EF = *spec.EF
	}
	return dev
}

// probeModels times core.Fit, the charge-table build and the
// closed-form row kernel on the first distinct models the replayed
// traffic names.
func (rp *replayer) probeModels(ctx context.Context) error {
	log := rp.st.log
	trace := uint64(1 << 32)
	devices := map[[2]float64]bool{}
	fits := map[string]bool{}
	gates, drains := sweep.PaperGates(), sweep.Grid()
	bias := make([]fettoy.Bias, len(drains))
	out := make([]float64, len(drains))
	for _, spec := range rp.specs {
		dev := specDevice(spec)
		if d := [2]float64{dev.T, dev.EF}; !devices[d] && len(devices) < maxModelProbes {
			devices[d] = true
			ref, err := fettoy.New(dev)
			if err != nil {
				return err
			}
			tab := ref.EnableTable(fettoy.TableOptions{})
			trace++
			_, end := log.begin(trace, 0, "fettoy.table_build")
			err = tab.BuildContext(ctx)
			end()
			if err != nil {
				return err
			}
		}
		family := spec.Family
		if family == "" {
			family = server.DefaultFamily
		}
		if family == server.FamilyReference || fits[spec.Key()] || len(fits) >= maxModelProbes {
			continue
		}
		fits[spec.Key()] = true
		ref, err := fettoy.New(dev)
		if err != nil {
			return err
		}
		cs := core.Model1Spec()
		if family == server.FamilyModel2 {
			cs = core.Model2Spec()
		}
		trace++
		fit, end := log.begin(trace, 0, "core.fit")
		m, err := core.Fit(ref, cs, core.FitOptions{})
		end()
		if err != nil {
			return err
		}
		for _, vg := range gates {
			for j, vd := range drains {
				bias[j] = fettoy.Bias{VG: vg, VD: vd}
			}
			_, end := log.begin(trace, fit, "core.idsbatch")
			err := m.IDSBatch(bias, out)
			end()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// countEncodeAllocs re-encodes the kept answers and counts heap
// allocations per encoded response.
func (rp *replayer) countEncodeAllocs() {
	if len(rp.answers) == 0 {
		return
	}
	var buf bytes.Buffer
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for _, ans := range rp.answers {
		buf.Reset()
		_ = ans.encode(&buf, rp.wl.stream) // encoded once already in the replay
	}
	runtime.ReadMemStats(&b)
	rp.st.encodeAllocs = float64(b.Mallocs-a.Mallocs) / float64(len(rp.answers))
}

// replay runs the workload's first n bodies through the layers.
func replay(ctx context.Context, wl *workload, seed uint64, n int, sp *speedProbe) (replayStats, error) {
	rp, err := newReplayer(wl)
	if err != nil {
		return replayStats{}, err
	}
	speedBefore := sp.rate(ctx, 2*probeLength)
	before := telemetry.Default().Snapshot().Counters
	for i := range uint64(n) {
		body, _ := wl.body(seed, i)
		rp.st.tally.attempted++
		if err := rp.one(ctx, i, body); err != nil {
			rp.st.tally.fail(fmt.Errorf("replay request %d: %w", i, err))
		}
	}
	after := telemetry.Default().Snapshot().Counters
	rp.st.cluster = map[string]int64{}
	for _, k := range []string{telemetry.KeyClusterRouteLocalHit, telemetry.KeyClusterRouteFailover, telemetry.KeyClusterRouteRetries} {
		rp.st.cluster[k] = after[k] - before[k]
	}
	rp.countEncodeAllocs()
	err = rp.probeModels(ctx)
	rp.st.speed = (speedBefore + sp.rate(ctx, 2*probeLength)) / 2
	if cerr := rp.close(); err == nil {
		err = cerr
	}
	return rp.st, err
}
