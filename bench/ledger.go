package main

// ledger.go turns repetitions and the traced pass into the reported
// metrics, writes and reads the result file, and compares two result
// files against the bounds in BENCHMARK.json (-agree).

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"cntfet/internal/sweep"
	"cntfet/internal/telemetry"
)

// metricDef names one reported metric; BENCHMARK.json adds which way
// is better and the end-to-end bounds. moves is, for a per-layer
// metric, the end-to-end metric and workload it should move. A
// ledgerOnly metric is kept out of the one-line result: error_rate is
// that line's failed/attempted, and the stream span exists only on the
// streaming workload.
type metricDef struct {
	name, unit, moves string
	ledgerOnly        bool
}

var endToEndDefs = []metricDef{
	{name: "throughput_rps", unit: "req/s"},
	{name: "latency_p50_ms", unit: "ms"},
	{name: "latency_p99_ms", unit: "ms"},
	{name: "error_rate", unit: "ratio", ledgerOnly: true},
	{name: "alloc_kb_per_req", unit: "KiB"},
	{name: "setup_s", unit: "s"},
	{name: "setup_heap_mb", unit: "MiB"},
}

const (
	movesDecode   = "throughput_rps on iv-point"
	movesResolve  = "throughput_rps on cold-model; setup_s elsewhere"
	movesEncode   = "throughput_rps on sweep-buffered; latency_p50_ms on sweep-stream-fleet; no change on iv-point and cold-model"
	movesCounters = "throughput_rps on sweep-buffered; error_rate on all"
	movesSweep    = "latency_p50_ms on sweep-buffered; no change on iv-point"
	movesDispatch = "throughput_rps on sweep-buffered"
	movesFettoy   = "setup_s and throughput_rps on iv-point"
	movesCluster  = "latency_p50_ms and error_rate on sweep-stream-fleet only"
	movesTrace    = "latency_p50_ms on iv-point (with tracing on)"
)

var perLayerDefs = []metricDef{
	{name: "server.handler_us_p50", unit: "us", moves: "latency_p50_ms on iv-point"},
	{name: "server.decode_us_p50", unit: "us", moves: movesDecode},
	{name: "server.key_us_p50", unit: "us", moves: movesDecode},
	{name: "server.resolve_hit_us_p50", unit: "us", moves: movesDecode},
	{name: "server.resolve_miss_ms_p50", unit: "ms", moves: movesResolve},
	{name: "server.cache_hit_ratio", unit: "ratio", moves: movesResolve},
	{name: "server.encode_us_p50", unit: "us", moves: movesEncode},
	{name: "server.encode_allocs_per_req", unit: "count", moves: movesEncode},
	{name: "server.response_bytes", unit: "B", moves: movesEncode},
	{name: "server.encode_share", unit: "ratio", moves: movesEncode},
	{name: "server.coalesce_hit_ratio", unit: "ratio", moves: movesCounters},
	{name: "server.stream_frames_per_req", unit: "count", moves: movesCounters},
	{name: "server.rejected", unit: "count", moves: movesCounters},
	{name: "engine.run_us_p50", unit: "us", moves: "throughput_rps on sweep-buffered"},
	{name: "engine.self_us_p50", unit: "us", moves: "throughput_rps on iv-point"},
	{name: "sweep.family_us_p50", unit: "us", moves: movesSweep},
	{name: "sweep.self_us_p50", unit: "us", moves: movesSweep},
	{name: "sweep.points_per_s", unit: "1/s", moves: movesSweep},
	{name: "core.idsbatch_ns_per_point", unit: "ns", moves: "throughput_rps on sweep-buffered"},
	{name: "core.fit_ms_p50", unit: "ms", moves: "throughput_rps on cold-model"},
	{name: "core.dispatch_linear_per_point", unit: "ratio", moves: movesDispatch},
	{name: "core.dispatch_quadratic_per_point", unit: "ratio", moves: movesDispatch},
	{name: "core.dispatch_cardano_per_point", unit: "ratio", moves: movesDispatch},
	{name: "core.dispatch_trig_per_point", unit: "ratio", moves: movesDispatch},
	{name: "fettoy.table_build_ms_p50", unit: "ms", moves: movesFettoy},
	{name: "fettoy.newton_iters_per_solve", unit: "count", moves: movesFettoy},
	{name: "cluster.handler_us_p50", unit: "us", moves: movesCluster},
	{name: "cluster.hop_us_p50", unit: "us", moves: movesCluster},
	{name: "cluster.local_hit_ratio", unit: "ratio", moves: movesCluster},
	{name: "cluster.retries", unit: "count", moves: movesCluster},
	{name: "net.transport_us_p50", unit: "us", moves: "latency_p50_ms on sweep-stream-fleet"},
	{name: "runtime.allocs_per_req", unit: "count", moves: "alloc_kb_per_req on all"},
	{name: "runtime.gc_cpu_fraction", unit: "ratio", moves: "latency_p99_ms on sweep-buffered"},
	{name: "telemetry.trace_overhead_pct", unit: "%", moves: movesTrace},
	{name: "telemetry.span_server_request_us_p50", unit: "us", moves: movesTrace},
	{name: "telemetry.span_engine_job_us_p50", unit: "us", moves: movesTrace},
	{name: "telemetry.span_server_stream_us_p50", unit: "us", moves: movesTrace, ledgerOnly: true},
	{name: "telemetry.span_server_model_build_ms_p50", unit: "ms", moves: movesTrace},
	{name: "telemetry.span_drops", unit: "count", moves: movesTrace},
}

// stat is an end-to-end metric over the repetitions.
type stat struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	Reps   []float64 `json:"reps"`
}

func newStat(unit string, values []float64) stat {
	q1, q2, q3 := quartiles(values)
	return stat{Unit: unit, Median: q2, Q1: q1, Q3: q3, Reps: values}
}

// layerValue is a per-layer metric; Value is null where the workload
// does not exercise it.
type layerValue struct {
	Unit  string   `json:"unit"`
	Value *float64 `json:"value"`
	Moves string   `json:"moves"`
}

type provenance struct {
	NProc         int     `json:"nproc"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	Clients       int     `json:"clients"`
	Reps          int     `json:"reps"`
	RepSeconds    float64 `json:"rep_seconds"`
	WarmupSeconds float64 `json:"warmup_seconds"`
	Seed          uint64  `json:"seed"`
	GoVersion     string  `json:"go_version"`
	Revision      string  `json:"vcs_revision"`
	Traced        bool    `json:"traced"`
}

type workloadReport struct {
	Name         string `json:"name"`
	Why          string `json:"why"`
	Topology     string `json:"topology"`
	Correct      bool   `json:"correct"`
	Attempted    int64  `json:"attempted"`
	Failed       int64  `json:"failed"`
	FirstFailure string `json:"first_failure,omitempty"`
	// The oracle's coverage and the latency sample sizes, per repetition.
	OracleChecked []int           `json:"oracle_checked_per_rep"`
	OracleKeys    []int           `json:"oracle_keys_per_rep"`
	Samples       []int           `json:"latency_samples_per_rep"`
	Beyond99      []int           `json:"samples_beyond_p99_per_rep"`
	EndToEnd      map[string]stat `json:"end_to_end"`
	// Unscaled holds the timings as measured, before scaling to the
	// reference machine speed, and the probe rate they were scaled by.
	Unscaled map[string]stat       `json:"unscaled"`
	PerLayer map[string]layerValue `json:"per_layer,omitempty"`
	// ChainCoverage is the replayed layer calls' share of the handler
	// p50: decode + key + resolve + engine + encode, each with the time
	// its children cover.
	ChainCoverage *float64 `json:"chain_coverage,omitempty"`
}

type ledger struct {
	Provenance provenance       `json:"provenance"`
	Workloads  []workloadReport `json:"workloads"`
}

// workloadRun gathers one workload's measurements.
type workloadRun struct {
	wl     *workload
	reps   []repResult
	traced *repResult
	replay *replayStats
}

func (r *workloadRun) report() workloadReport {
	rep := workloadReport{Name: r.wl.name, Why: r.wl.why, Topology: r.wl.topology}
	var t tally
	values := map[string][]float64{}
	unscaled := map[string][]float64{}
	add := func(m map[string][]float64, name string, v float64) { m[name] = append(m[name], v) }
	for _, x := range r.reps {
		t.add(x.tally)
		rep.OracleChecked = append(rep.OracleChecked, x.checked)
		rep.OracleKeys = append(rep.OracleKeys, x.keysChecked)
		rep.Samples = append(rep.Samples, x.completed)
		rep.Beyond99 = append(rep.Beyond99, x.beyond99)
		add(values, "throughput_rps", scaleRate(x.rps, x.speed))
		add(values, "latency_p50_ms", scaleTime(x.p50ms, x.speed))
		add(values, "latency_p99_ms", scaleTime(x.p99ms, x.speed))
		add(values, "error_rate", ratio(float64(x.tally.failed), float64(x.tally.attempted)))
		add(values, "alloc_kb_per_req", x.allocKBPerReq)
		scaled := make([]float64, len(x.setups))
		for i, s := range x.setups {
			scaled[i] = scaleTime(s, x.setupSpeeds[i])
		}
		add(values, "setup_s", median(scaled))
		add(values, "setup_heap_mb", x.setupHeapMB)
		add(unscaled, "throughput_rps", x.rps)
		add(unscaled, "latency_p50_ms", x.p50ms)
		add(unscaled, "latency_p99_ms", x.p99ms)
		add(unscaled, "setup_s", median(x.setups))
		add(unscaled, "probe_ops_per_s", x.speed)
		add(unscaled, "setup_probe_ops_per_s", median(x.setupSpeeds))
	}
	if r.traced != nil {
		t.add(r.traced.tally)
	}
	if r.replay != nil {
		t.add(r.replay.tally)
	}
	rep.Attempted, rep.Failed, rep.FirstFailure = t.attempted, t.failed, t.first
	rep.EndToEnd = map[string]stat{}
	for _, d := range endToEndDefs {
		rep.EndToEnd[d.name] = newStat(d.unit, values[d.name])
	}
	rep.Unscaled = map[string]stat{}
	for name, vs := range unscaled {
		unit := "1/s"
		for _, d := range endToEndDefs {
			if d.name == name {
				unit = d.unit
			}
		}
		rep.Unscaled[name] = newStat(unit, vs)
	}
	rep.Correct = t.failed == 0 && t.attempted > 0
	for i, x := range r.reps {
		if x.checked == 0 || (r.wl.keys > 0 && rep.OracleKeys[i] < r.wl.keys) {
			rep.Correct = false
		}
	}
	if r.traced != nil && r.replay != nil {
		values, coverage := r.perLayer(rep.EndToEnd)
		rep.PerLayer = map[string]layerValue{}
		for _, d := range perLayerDefs {
			lv := layerValue{Unit: d.unit, Moves: d.moves}
			if v, ok := values[d.name]; ok && !math.IsNaN(v) && !math.IsInf(v, 0) {
				lv.Value = &v
			}
			rep.PerLayer[d.name] = lv
		}
		rep.ChainCoverage = &coverage
	}
	return rep
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 { //lint:allow floatcmp a zero denominator is an exact count of nothing
		return 0
	}
	return a / b
}

const usPerNS = 1e-3

// perLayer computes the per-layer metrics from the untraced windows'
// counters, the traced repetition and the replay's spans.
func (r *workloadRun) perLayer(e2e map[string]stat) (map[string]float64, float64) {
	v := map[string]float64{}
	var w window
	var gcCPU, totalCPU float64
	completed := 0
	for _, x := range r.reps {
		w.merge(x.win)
		gcCPU += x.gcCPU
		totalCPU += x.totalCPU
		completed += x.completed
	}
	c := func(k string) float64 { return float64(w.counters[k]) }
	v["server.cache_hit_ratio"] = ratio(c(telemetry.KeyServerCacheHits), c(telemetry.KeyServerCacheHits)+c(telemetry.KeyServerCacheMisses))
	v["server.coalesce_hit_ratio"] = ratio(c(telemetry.KeyServerCoalesceHits), c(telemetry.KeyServerCoalesceHits)+c(telemetry.KeyServerCoalesceMisses))
	// Each streamed request sends its rows and one done frame.
	v["server.stream_frames_per_req"] = ratio(c(telemetry.KeyServerStreamRows)+c(telemetry.KeyServerStreamRequests), float64(completed))
	v["server.rejected"] = c(telemetry.KeyServerSaturated)
	solves := c(telemetry.KeyCoreSolves)
	v["core.dispatch_linear_per_point"] = ratio(c(telemetry.KeyCoreDispatchLinear), solves)
	v["core.dispatch_quadratic_per_point"] = ratio(c(telemetry.KeyCoreDispatchQuadratic), solves)
	v["core.dispatch_cardano_per_point"] = ratio(c(telemetry.KeyCoreDispatchCardano), solves)
	v["core.dispatch_trig_per_point"] = ratio(c(telemetry.KeyCoreDispatchTrig), solves)
	v["fettoy.newton_iters_per_solve"] = ratio(c(telemetry.KeyFettoyNewtonIters), c(telemetry.KeyFettoySolves))
	v["runtime.allocs_per_req"] = ratio(float64(w.mallocs), float64(completed))
	v["runtime.gc_cpu_fraction"] = ratio(gcCPU, totalCPU)

	// The replay's spans, scaled to the reference machine speed like the
	// end-to-end timings.
	rs := r.replay
	sc := func(t float64) float64 { return scaleTime(t, rs.speed) }
	self := selfTimes(rs.log.spans)
	durs := map[string][]float64{}
	byTrace := map[uint64]map[string]benchSpan{}
	var missMS, engineSelf, sweepSelf, rowNS []float64
	var sweepNS int64
	for _, s := range rs.log.spans {
		durs[s.Name] = append(durs[s.Name], float64(s.dur()))
		if byTrace[s.Trace] == nil {
			byTrace[s.Trace] = map[string]benchSpan{}
		}
		byTrace[s.Trace][s.Name] = s
		switch s.Name {
		case "server.resolve":
			if rs.misses[s.Span] {
				missMS = append(missMS, float64(s.dur())/1e6)
			}
		case "sweep.family":
			sweepSelf = append(sweepSelf, float64(self[s.Span]))
			sweepNS += s.dur()
		case "core.idsbatch":
			rowNS = append(rowNS, float64(s.dur()))
		}
	}
	var chain []float64
	for tr, spans := range byTrace {
		eng, ok := spans["engine.run"]
		if !ok {
			continue
		}
		if rs.grid[tr] {
			engineSelf = append(engineSelf, float64(eng.dur()-spans["sweep.family"].dur()))
		} else {
			engineSelf = append(engineSelf, float64(self[eng.Span]))
		}
		var sum int64
		for _, n := range []string{"server.decode", "server.key", "server.resolve", "engine.run", "server.encode"} {
			sum += spans[n].dur()
		}
		chain = append(chain, float64(sum))
	}
	us := func(xs []float64) float64 { return sc(p50(xs) * usPerNS) }
	handler := us(durs["server.handler"])
	v["server.handler_us_p50"] = handler
	v["server.decode_us_p50"] = us(durs["server.decode"])
	v["server.key_us_p50"] = us(durs["server.key"])
	v["server.resolve_hit_us_p50"] = us(durs["server.resolve_hit"])
	v["server.resolve_miss_ms_p50"] = sc(p50(missMS))
	v["server.encode_us_p50"] = us(durs["server.encode"])
	v["server.encode_allocs_per_req"] = rs.encodeAllocs
	bytesPerResp := make([]float64, len(rs.respBytes))
	for i, b := range rs.respBytes {
		bytesPerResp[i] = float64(b)
	}
	v["server.response_bytes"] = p50(bytesPerResp)
	v["server.encode_share"] = ratio(v["server.encode_us_p50"], handler)
	v["engine.run_us_p50"] = us(durs["engine.run"])
	v["engine.self_us_p50"] = us(engineSelf)
	v["sweep.family_us_p50"] = us(durs["sweep.family"])
	v["sweep.self_us_p50"] = us(sweepSelf)
	v["sweep.points_per_s"] = scaleRate(ratio(float64(rs.points), float64(sweepNS)/1e9), rs.speed)
	v["core.idsbatch_ns_per_point"] = sc(p50(rowNS)) / float64(len(sweep.Grid()))
	v["core.fit_ms_p50"] = sc(p50(durs["core.fit"]) / 1e6)
	v["fettoy.table_build_ms_p50"] = sc(p50(durs["fettoy.table_build"]) / 1e6)
	clusterUS := us(durs["cluster.handler"])
	v["cluster.handler_us_p50"] = clusterUS
	v["cluster.hop_us_p50"] = clusterUS - handler
	lh, fo := float64(rs.cluster[telemetry.KeyClusterRouteLocalHit]), float64(rs.cluster[telemetry.KeyClusterRouteFailover])
	v["cluster.local_hit_ratio"] = ratio(lh, lh+fo)
	v["cluster.retries"] = float64(rs.cluster[telemetry.KeyClusterRouteRetries])
	outer := handler
	if r.wl.fleet {
		outer = clusterUS
	}
	v["net.transport_us_p50"] = e2e["latency_p50_ms"].Median*1e3 - outer

	// The traced repetition's telemetry spans.
	tr := r.traced
	v["telemetry.trace_overhead_pct"] = 100 * (ratio(scaleTime(tr.p50ms, tr.speed), e2e["latency_p50_ms"].Median) - 1)
	kinds := map[string][]float64{}
	seen := map[string]bool{}
	for _, s := range append(tr.setupSpans, tr.loadSpans...) {
		if seen[s.SpanID] {
			continue
		}
		seen[s.SpanID] = true
		if s.Kind == telemetry.SpanServerRequest && s.Attrs[telemetry.AttrPath] != "/v1/jobs" {
			continue // health probes
		}
		kinds[s.Kind] = append(kinds[s.Kind], float64(s.DurNS))
	}
	tus := func(xs []float64) float64 { return scaleTime(p50(xs)*usPerNS, tr.speed) }
	v["telemetry.span_server_request_us_p50"] = tus(kinds[telemetry.SpanServerRequest])
	v["telemetry.span_engine_job_us_p50"] = tus(kinds[telemetry.SpanEngineJob])
	v["telemetry.span_server_stream_us_p50"] = tus(kinds[telemetry.SpanServerStream])
	v["telemetry.span_server_model_build_ms_p50"] = scaleTime(p50(kinds[telemetry.SpanServerModelBuild])/1e6, tr.speed)
	v["telemetry.span_drops"] = float64(tr.drops)
	return v, ratio(p50(chain), p50(durs["server.handler"]))
}

// p50 is the nearest-rank median, NaN for no samples.
func p50(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), 0.5)-1]
}

// quartiles are Python's statistics.quantiles(values, n=4) (the
// default exclusive method), the spread the benchmark's acceptance
// rule is stated in.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	n := len(s)
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// median is the median of values, which need not be sorted.
func median(values []float64) float64 {
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func writeLedger(path string, l ledger) error {
	b, err := json.MarshalIndent(l, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readLedger(path string) (ledger, error) {
	var l ledger
	b, err := os.ReadFile(path)
	if err != nil {
		return l, err
	}
	if err := json.Unmarshal(b, &l); err != nil {
		return l, fmt.Errorf("%s: %w", path, err)
	}
	return l, nil
}

// benchmarkMetric is one metric entry of BENCHMARK.json; per-layer
// metrics have no bound.
type benchmarkMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

// benchmarkFile is the part of BENCHMARK.json the benchmark reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

// loadBenchmark reads BENCHMARK.json from the repository root, which
// is the working directory or its parent.
func loadBenchmark() (benchmarkFile, error) {
	var bf benchmarkFile
	var b []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if b, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return bf, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return bf, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return bf, nil
}

// agree compares two result files metric by metric: each end-to-end
// metric of BENCHMARK.json on each workload must have medians within
// the metric's bound of each other, and error_rate must be 0 in both.
// It prints one row per pair and reports whether all agree.
func agree(bf benchmarkFile, a, b ledger, w io.Writer) (bool, error) {
	find := func(l ledger, name string) (workloadReport, bool) {
		for _, wr := range l.Workloads {
			if wr.Name == name {
				return wr, true
			}
		}
		return workloadReport{}, false
	}
	ok := true
	rows := 0
	for _, wa := range a.Workloads {
		wb, found := find(b, wa.Name)
		if !found {
			fmt.Fprintf(w, "%-20s missing from the second file\n", wa.Name)
			ok = false
			continue
		}
		for _, m := range bf.EndToEnd {
			sa, sb := wa.EndToEnd[m.Name], wb.EndToEnd[m.Name]
			rel := ratio(sb.Median, sa.Median) - 1
			good := math.Abs(rel) <= m.Bound && sa.Median > 0
			fmt.Fprintf(w, "%-20s %-18s A %10.4g [%.4g, %.4g]  B %10.4g [%.4g, %.4g]  %+6.1f%% (bound %.0f%%)  %s\n",
				wa.Name, m.Name, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3, 100*rel, 100*m.Bound, verdict(good))
			ok = ok && good
			rows++
		}
		ea, eb := wa.EndToEnd["error_rate"].Median, wb.EndToEnd["error_rate"].Median
		good := ea == 0 && eb == 0 && wa.Correct && wb.Correct //lint:allow floatcmp error_rate's bound is +0 absolute
		fmt.Fprintf(w, "%-20s %-18s A %10.4g  B %10.4g  (both must be 0 and correct)  %s\n",
			wa.Name, "error_rate", ea, eb, verdict(good))
		ok = ok && good
	}
	if rows == 0 {
		return false, errors.New("no workload in common")
	}
	return ok, nil
}

func verdict(good bool) string {
	if good {
		return "agree"
	}
	return "DISAGREE"
}

// resultLine is the one-line result the last line of a single-workload
// run prints: the end-to-end metrics, or with -trace 1 the per-layer
// ones.
func resultLine(rep workloadReport, perLayer bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if perLayer {
		for _, d := range perLayerDefs {
			if d.ledgerOnly {
				continue
			}
			lv := rep.PerLayer[d.name]
			if lv.Value == nil {
				return nil, fmt.Errorf("per-layer metric %s was not measured", d.name)
			}
			metrics[d.name] = value{*lv.Value, d.unit}
		}
	} else {
		for _, d := range endToEndDefs {
			if !d.ledgerOnly {
				metrics[d.name] = value{rep.EndToEnd[d.name].Median, d.unit}
			}
		}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, metrics})
}

// printReport writes one workload's metrics, one per line, with units.
func printReport(w io.Writer, rep workloadReport) {
	fmt.Fprintf(w, "== %s (%s): %s\n", rep.Name, rep.Topology, rep.Why)
	fmt.Fprintf(w, "   attempted %d, failed %d, oracle checked %v per rep over %v keys\n",
		rep.Attempted, rep.Failed, rep.OracleChecked, rep.OracleKeys)
	if rep.FirstFailure != "" {
		fmt.Fprintf(w, "   first failure: %s\n", rep.FirstFailure)
	}
	for _, d := range endToEndDefs {
		s := rep.EndToEnd[d.name]
		fmt.Fprintf(w, "   %-42s %12.5g %-6s [q1 %.5g, q3 %.5g]\n", d.name, s.Median, d.unit, s.Q1, s.Q3)
	}
	for _, d := range perLayerDefs {
		lv, ok := rep.PerLayer[d.name]
		if !ok {
			continue
		}
		val := "-"
		if lv.Value != nil {
			val = fmt.Sprintf("%.5g", *lv.Value)
		}
		fmt.Fprintf(w, "   %-42s %12s %-6s moves %s\n", d.name, val, d.unit, d.moves)
	}
	if rep.ChainCoverage != nil {
		fmt.Fprintf(w, "   %-42s %12.3f        share of server.handler_us_p50\n", "chain coverage", *rep.ChainCoverage)
	}
}
