package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cntfet/internal/server"
	"cntfet/internal/telemetry"
)

// postFleet posts one job to a live front end over HTTP and returns
// the decoded answer plus the replica that served it.
func postFleet(t *testing.T, front *httptest.Server, body string) (server.JobResponse, string) {
	t.Helper()
	resp, err := front.Client().Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", body, resp.StatusCode, raw)
	}
	var jr server.JobResponse
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatalf("decoding %s: %v", raw, err)
	}
	return jr, resp.Header.Get(ReplicaHeader)
}

// TestRealFleetRouting boots two real cntserve replicas (server.New on
// loopback listeners) behind one Router and pins what the fake
// replicas cannot show, because only real replicas build charge
// tables. The replicas share this process's registry, so counter
// deltas are fleet-wide sums — the quantity sharding minimises.
//
//	(a) affinity  — three reference keys at distinct T build exactly
//	                three tables fleet-wide; re-posting them builds
//	                none, counts three local hits, keeps each key's
//	                Cntshard-Replica header and answers bit-identically.
//	(b) streaming — a family sweep streamed through the router carries
//	                the buffered rows bit for bit, frame by frame.
//	(c) failover  — with key 0's home closed, the survivor answers it
//	                bit-identically, building its own table once.
func TestRealFleetRouting(t *testing.T) {
	reg := telemetry.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(wasEnabled) })

	replicas := map[string]*httptest.Server{}
	var bases []string
	for range 2 {
		ts := httptest.NewServer(server.New(server.Config{}).Handler())
		t.Cleanup(ts.Close)
		replicas[ts.URL] = ts
		bases = append(bases, ts.URL)
	}
	rt := newRouter(t, Config{Replicas: bases, Backoff: time.Millisecond})
	front := httptest.NewServer(rt.Handler())
	t.Cleanup(front.Close)

	builds := reg.Counter(telemetry.KeyFettoyTableBuilds)
	localHits := reg.Counter(telemetry.KeyClusterRouteLocalHit)
	failovers := reg.Counter(telemetry.KeyClusterRouteFailover)

	// (a) Distinct T, not distinct EF: one temperature's EF band shares
	// a table per replica, and the router does not co-locate bands.
	keys := []string{
		`{"kind": "iv-point", "model": {"family": "reference", "t": 250}, "vg": 0.5, "vd": 0.4}`,
		`{"kind": "iv-point", "model": {"family": "reference", "t": 300}, "vg": 0.5, "vd": 0.4}`,
		`{"kind": "iv-point", "model": {"family": "reference", "t": 350}, "vg": 0.5, "vd": 0.4}`,
	}
	buildsBefore := builds.Value()
	ids := make([]float64, len(keys))
	homes := make([]string, len(keys))
	for i, body := range keys {
		jr, home := postFleet(t, front, body)
		if replicas[home] == nil {
			t.Fatalf("key %d: %s header %q names no replica", i, ReplicaHeader, home)
		}
		ids[i], homes[i] = jr.IDS, home
	}
	if d := builds.Value() - buildsBefore; d != int64(len(keys)) {
		t.Fatalf("fleet built %d charge tables for %d distinct keys, want one each", d, len(keys))
	}
	localBefore := localHits.Value()
	for i, body := range keys {
		jr, rep := postFleet(t, front, body)
		if rep != homes[i] {
			t.Fatalf("key %d moved from %s to %s between posts", i, homes[i], rep)
		}
		if math.Float64bits(jr.IDS) != math.Float64bits(ids[i]) {
			t.Fatalf("key %d repeat answered %g, first %g", i, jr.IDS, ids[i])
		}
	}
	if d := builds.Value() - buildsBefore; d != int64(len(keys)) {
		t.Fatalf("re-posting cached keys built %d extra tables, want 0", d-int64(len(keys)))
	}
	if d := localHits.Value() - localBefore; d != int64(len(keys)) {
		t.Fatalf("local_hit moved by %d across %d home-served repeats", d, len(keys))
	}

	// (b) The same sweep buffered, then streamed through the router.
	sweep := `{
		"kind": "family-sweep",
		"model": {"family": "model2"},
		"gates": [0.3, 0.45, 0.6],
		"drains": [0, 0.2, 0.4, 0.6]
	}`
	buffered, _ := postFleet(t, front, sweep)
	resp, err := front.Client().Post(front.URL+"/v1/jobs", "application/json",
		strings.NewReader(strings.Replace(sweep, `"kind"`, `"stream": true, "kind"`, 1)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "application/x-ndjson" {
		t.Fatalf("streamed sweep: status %d, content type %q", resp.StatusCode, ct)
	}
	var rows []server.StreamRow
	var done bool
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var frame server.StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &frame); err != nil {
			t.Fatalf("bad stream frame %q: %v", sc.Text(), err)
		}
		switch {
		case done || frame.Row == nil && frame.Done == nil:
			t.Fatalf("unexpected stream frame: %s", sc.Text())
		case frame.Row != nil:
			rows = append(rows, *frame.Row)
		default:
			done = true
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !done || len(rows) == 0 || len(rows) != len(buffered.Family) {
		t.Fatalf("stream delivered %d of %d rows (done=%v)", len(rows), len(buffered.Family), done)
	}
	sameBits := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i, row := range rows {
		if want := buffered.Family[i]; row.Index != i || !slices.EqualFunc(row.IDS, want.IDS, sameBits) {
			t.Fatalf("streamed row %d = %+v, buffered %+v", i, row, want)
		}
	}

	// (c) Close key 0's home. The router still holds it in rotation, so
	// the post pays one failed dial before the survivor answers.
	replicas[homes[0]].Close()
	var survivor string
	for _, base := range bases {
		if base != homes[0] {
			survivor = base
		}
	}
	failoverBefore, buildsBefore := failovers.Value(), builds.Value()
	jr, rep := postFleet(t, front, keys[0])
	if rep != survivor {
		t.Fatalf("failover served by %s, want survivor %s", rep, survivor)
	}
	if math.Float64bits(jr.IDS) != math.Float64bits(ids[0]) {
		t.Fatalf("failover answered %g, home %g", jr.IDS, ids[0])
	}
	if d := failovers.Value() - failoverBefore; d != 1 {
		t.Fatalf("failover counter moved by %d, want 1", d)
	}
	if d := builds.Value() - buildsBefore; d != 1 {
		t.Fatalf("survivor built %d tables for the failed-over key, want 1", d)
	}
}

// TestRouterMetricsConformance scrapes the router's own /metrics after
// one routed job: the exposition a real Prometheus would read must
// pass the conformance checker and carry the routing counters and one
// health gauge per replica.
func TestRouterMetricsConformance(t *testing.T) {
	r0, r1 := newFakeReplica(t, "r0"), newFakeReplica(t, "r1")
	rt := newRouter(t, Config{Replicas: []string{r0.ts.URL, r1.ts.URL}})
	if w, _ := postRouter(t, rt, jobBody); w.Code != http.StatusOK {
		t.Fatalf("routed job: status %d: %s", w.Code, w.Body)
	}

	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", w.Code)
	}
	if ct := w.Header().Get("Content-Type"); ct != telemetry.PromContentType {
		t.Fatalf("/metrics content type %q, want %q", ct, telemetry.PromContentType)
	}
	prom := w.Body.String()
	if err := telemetry.ValidatePrometheus(strings.NewReader(prom)); err != nil {
		t.Fatalf("/metrics is not valid Prometheus exposition: %v\n%s", err, prom)
	}
	for _, want := range []string{
		"cntfet_cluster_route_local_hit_total",
		"cntfet_cluster_route_failover_total",
		"cntfet_cluster_replica_0_healthy",
		"cntfet_cluster_replica_1_healthy",
	} {
		if !strings.Contains(prom, want) {
			t.Fatalf("/metrics missing %s:\n%s", want, prom)
		}
	}
}

// TestDefaultClientReusesConnections pins the nil-Client default on a
// real replica: concurrent jobs through one router keep their
// router→replica connections instead of re-dialling them. Go's
// default transport keeps two idle connections per host, so 8 clients
// posting 200 iv-point jobs each opened hundreds of connections (513
// in one run); the default client's per-host idle pool must hold one
// per concurrent job.
func TestDefaultClientReusesConnections(t *testing.T) {
	const clients, jobs = 8, 200
	var dials atomic.Int64
	replica := httptest.NewUnstartedServer(server.New(server.Config{MaxInFlight: clients}).Handler())
	replica.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	replica.Start()
	t.Cleanup(replica.Close)
	rt := newRouter(t, Config{Replicas: []string{replica.URL}})
	t.Cleanup(rt.cfg.Client.CloseIdleConnections)

	var wg sync.WaitGroup
	errs := make(chan string, clients)
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range jobs {
				if w, _ := postRouter(t, rt, jobBody); w.Code != http.StatusOK {
					errs <- fmt.Sprintf("status %d: %s", w.Code, w.Body)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if n := dials.Load(); n > clients+2 {
		t.Fatalf("%d router→replica connections for %d concurrent clients, want <= %d", n, clients, clients+2)
	}
}

// TestOverCapJobAnsweredOnce posts bodies over a replica's job-size
// bounds (workers, samples) through the router to two real replicas:
// each gets the replica's 400 invalid-request, relayed as is after
// exactly one replica saw it, and the router retries none of them.
func TestOverCapJobAnsweredOnce(t *testing.T) {
	reg := telemetry.Default()
	wasEnabled := reg.Enabled()
	reg.SetEnabled(true)
	t.Cleanup(func() { reg.SetEnabled(wasEnabled) })

	var jobs atomic.Int64
	var bases []string
	for range 2 {
		h := server.New(server.Config{}).Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/jobs" {
				jobs.Add(1)
			}
			h.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		bases = append(bases, ts.URL)
	}
	rt := newRouter(t, Config{Replicas: bases, Backoff: time.Millisecond})
	retries := reg.Counter(telemetry.KeyClusterRouteRetries)

	for _, body := range []string{
		`{"kind": "family-sweep", "model": {"family": "model2"}, "gates": [0.5], "drains": [0.1], "workers": 1048576}`,
		`{"kind": "monte-carlo", "model": {"family": "model2"}, "vg": 0.5, "vd": 0.4, "samples": 1073741824}`,
	} {
		jobsBefore, retriesBefore := jobs.Load(), retries.Value()
		w, _ := postRouter(t, rt, body)
		var er server.ErrorResponse
		if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || w.Code != http.StatusBadRequest || er.Class != "invalid-request" {
			t.Fatalf("%s: status %d, body %s: want the replica's 400 invalid-request", body, w.Code, w.Body)
		}
		if n := jobs.Load() - jobsBefore; n != 1 {
			t.Fatalf("%s: %d replica requests, want 1", body, n)
		}
		if d := retries.Value() - retriesBefore; d != 0 {
			t.Fatalf("%s: router retried %d times", body, d)
		}
	}
}
