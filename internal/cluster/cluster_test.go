package cluster

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cntfet/internal/telemetry"
)

// fakeReplica is a minimal cntserve stand-in: counts jobs, answers
// /healthz, and tags its job responses so tests can see who served.
type fakeReplica struct {
	name    string
	jobs    atomic.Int64
	healthy atomic.Bool
	ts      *httptest.Server
}

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{name: name}
	f.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.jobs.Add(1)
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"kind": "iv-point", "ids": 1, "served_by": %q}`, f.name)
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if !f.healthy.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"status": "ok"}`)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

const jobBody = `{"kind": "iv-point", "model": {"family": "model2"}, "vg": 0.5, "vd": 0.4}`

func newRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// postRouter sends one job through the router handler and returns the
// response plus the replica that served it.
func postRouter(t *testing.T, rt *Router, body string) (*httptest.ResponseRecorder, string) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, req)
	return w, w.Header().Get(ReplicaHeader)
}

// TestNewValidatesReplicas pins replica-list parsing: each entry must
// name a host once the http:// prefix is added, so a trailing comma or
// a space after a comma in -replicas is a startup error, not a replica
// every job homed on it pays a failed dial for.
func TestNewValidatesReplicas(t *testing.T) {
	for _, tc := range []struct {
		name     string
		replicas []string
		wantErr  string
	}{
		{"empty entry", []string{"a:8080", ""}, `replica 1 ("")`},
		{"leading space", []string{"a:8080", " b:8080"}, `replica 1 (" b:8080")`},
		{"duplicate", []string{"a:8080", "http://a:8080/"}, "duplicate replica http://a:8080"},
		{"good set", []string{"a:8080", "http://b:8080/", "https://c"}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(Config{Replicas: tc.replicas})
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("New(%q): %v", tc.replicas, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("New(%q) error %v, want one containing %q", tc.replicas, err, tc.wantErr)
			}
		})
	}
}

// TestRankDeterministic pins the rendezvous contract: the order is a
// permutation of the replica set, stable across calls and across
// router instances, keyed by the key bytes — and over many keys every
// replica gets to be home (no degenerate hash).
func TestRankDeterministic(t *testing.T) {
	cfg := Config{Replicas: []string{"http://10.0.0.1:8080", "http://10.0.0.2:8080", "http://10.0.0.3:8080"}}
	a := newRouter(t, cfg)
	b := newRouter(t, cfg)

	homes := map[string]int{}
	for i := 0; i < 200; i++ {
		key := fmt.Sprintf("model1/default/T=%d/EF=-0.32", 200+i)
		oa, ob := a.rank(key), b.rank(key)
		if len(oa) != 3 {
			t.Fatalf("rank returned %d replicas, want 3", len(oa))
		}
		seen := map[string]bool{}
		for j := range oa {
			if oa[j].base != ob[j].base {
				t.Fatalf("routers disagree on order for %s: %s vs %s", key, oa[j].base, ob[j].base)
			}
			seen[oa[j].base] = true
		}
		if len(seen) != 3 {
			t.Fatalf("rank is not a permutation: %v", seen)
		}
		homes[oa[0].base]++
	}
	for base, n := range homes {
		if n == 0 {
			t.Fatalf("replica %s never home across 200 keys: %v", base, homes)
		}
	}
	if len(homes) != 3 {
		t.Fatalf("only %d of 3 replicas ever home: %v", len(homes), homes)
	}
}

// TestAffinityRoutesToOneHome checks the economic core: repeated jobs
// for one model key all land on the same replica (counted as local
// hits), and the other replica sees nothing.
func TestAffinityRoutesToOneHome(t *testing.T) {
	r0, r1 := newFakeReplica(t, "r0"), newFakeReplica(t, "r1")
	rt := newRouter(t, Config{Replicas: []string{r0.ts.URL, r1.ts.URL}})
	reg := telemetry.Default()
	localBefore := reg.Counter(telemetry.KeyClusterRouteLocalHit).Value()

	var served string
	for i := 0; i < 5; i++ {
		w, rep := postRouter(t, rt, jobBody)
		if w.Code != http.StatusOK {
			t.Fatalf("routed job %d: status %d: %s", i, w.Code, w.Body)
		}
		if i == 0 {
			served = rep
		} else if rep != served {
			t.Fatalf("job %d served by %s, earlier by %s: affinity broken", i, rep, served)
		}
	}
	if got := r0.jobs.Load() + r1.jobs.Load(); got != 5 {
		t.Fatalf("replicas saw %d jobs, want 5", got)
	}
	if r0.jobs.Load() != 0 && r1.jobs.Load() != 0 {
		t.Fatalf("both replicas served one key: %d/%d", r0.jobs.Load(), r1.jobs.Load())
	}
	if d := reg.Counter(telemetry.KeyClusterRouteLocalHit).Value() - localBefore; d != 5 {
		t.Fatalf("local_hit delta = %d, want 5", d)
	}
}

// TestFailoverToNextInHashOrder kills the home replica and checks the
// job is retried on the fallback, counted as a failover, with the dead
// replica marked out of rotation.
func TestFailoverToNextInHashOrder(t *testing.T) {
	r0, r1 := newFakeReplica(t, "r0"), newFakeReplica(t, "r1")
	rt := newRouter(t, Config{Replicas: []string{r0.ts.URL, r1.ts.URL}, Backoff: time.Millisecond})
	reg := telemetry.Default()

	_, home := postRouter(t, rt, jobBody)
	victim, survivor := r0, r1
	if home == strings.TrimRight(r1.ts.URL, "/") {
		victim, survivor = r1, r0
	}
	victim.ts.Close()

	failoverBefore := reg.Counter(telemetry.KeyClusterRouteFailover).Value()
	retriesBefore := reg.Counter(telemetry.KeyClusterRouteRetries).Value()
	w, rep := postRouter(t, rt, jobBody)
	if w.Code != http.StatusOK {
		t.Fatalf("failover job: status %d: %s", w.Code, w.Body)
	}
	if rep != strings.TrimRight(survivor.ts.URL, "/") {
		t.Fatalf("failover served by %s, want survivor %s", rep, survivor.ts.URL)
	}
	if !strings.Contains(w.Body.String(), `"served_by": "`+survivor.name+`"`) {
		t.Fatalf("failover body not from survivor: %s", w.Body)
	}
	if d := reg.Counter(telemetry.KeyClusterRouteFailover).Value() - failoverBefore; d != 1 {
		t.Fatalf("failover delta = %d, want 1", d)
	}
	if d := reg.Counter(telemetry.KeyClusterRouteRetries).Value() - retriesBefore; d != 1 {
		t.Fatalf("retries delta = %d, want 1", d)
	}

	// The dead replica is now out of rotation: the next job goes
	// straight to the survivor, no retry needed.
	retriesBefore = reg.Counter(telemetry.KeyClusterRouteRetries).Value()
	if w, _ := postRouter(t, rt, jobBody); w.Code != http.StatusOK {
		t.Fatalf("post-failover job: status %d", w.Code)
	}
	if d := reg.Counter(telemetry.KeyClusterRouteRetries).Value() - retriesBefore; d != 0 {
		t.Fatalf("healthy-first routing still retried %d times", d)
	}
}

// TestRetryOn5xxAnd429 checks the retry statuses: a replica answering
// 503 or 429 is skipped for the fallback, while a 400 is a real answer
// and is relayed as-is.
func TestRetryOn5xxAnd429(t *testing.T) {
	for _, tc := range []struct {
		name   string
		status int
	}{
		{"5xx", http.StatusServiceUnavailable},
		{"429", http.StatusTooManyRequests},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var flakyJobs atomic.Int64
			flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
				flakyJobs.Add(1)
				w.WriteHeader(tc.status)
			}))
			defer flaky.Close()
			good := newFakeReplica(t, "good")
			rt := newRouter(t, Config{Replicas: []string{flaky.URL, good.ts.URL}, Backoff: time.Millisecond})

			// Post for enough distinct keys that at least one homes on the
			// flaky replica; every job must still answer 200 from the good
			// one.
			for i := 0; i < 8; i++ {
				body := fmt.Sprintf(`{"kind": "iv-point", "model": {"family": "model2", "t": %d}, "vg": 0.5, "vd": 0.4}`, 250+i)
				w, rep := postRouter(t, rt, body)
				if w.Code != http.StatusOK {
					t.Fatalf("job %d: status %d: %s", i, w.Code, w.Body)
				}
				if rep != strings.TrimRight(good.ts.URL, "/") {
					t.Fatalf("job %d served by %s, want the good replica", i, rep)
				}
			}
			if flakyJobs.Load() == 0 {
				t.Skip("no key homed on the flaky replica (unlucky hash); nothing exercised")
			}
		})
	}

	t.Run("400 is an answer, not a retry", func(t *testing.T) {
		bad := newFakeReplica(t, "bad400")
		good := newFakeReplica(t, "good")
		rt := newRouter(t, Config{Replicas: []string{bad.ts.URL, good.ts.URL}})
		w, rep := postRouter(t, rt, `{"kind": "no-such-kind", "model": {}}`)
		// Both fakes answer 200 for any body; the point is single
		// delivery: exactly one replica sees the job.
		if w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
		if rep == "" || bad.jobs.Load()+good.jobs.Load() != 1 {
			t.Fatalf("job delivered %d times, want exactly 1", bad.jobs.Load()+good.jobs.Load())
		}
	})
}

// TestAllReplicasDown checks the terminal case: every attempt failing
// yields one 502 with a structured body and a route-errors count.
func TestAllReplicasDown(t *testing.T) {
	r0, r1 := newFakeReplica(t, "r0"), newFakeReplica(t, "r1")
	rt := newRouter(t, Config{Replicas: []string{r0.ts.URL, r1.ts.URL}, Backoff: time.Millisecond})
	r0.ts.Close()
	r1.ts.Close()

	reg := telemetry.Default()
	errsBefore := reg.Counter(telemetry.KeyClusterRouteErrors).Value()
	w, _ := postRouter(t, rt, jobBody)
	if w.Code != http.StatusBadGateway {
		t.Fatalf("all-down job: status %d, want 502: %s", w.Code, w.Body)
	}
	var er errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &er); err != nil || er.Class != "unavailable" {
		t.Fatalf("502 body not classified: %s", w.Body)
	}
	if d := reg.Counter(telemetry.KeyClusterRouteErrors).Value() - errsBefore; d != 1 {
		t.Fatalf("route errors delta = %d, want 1", d)
	}
}

// TestSpellingsShareOneHome is the router half of the canonical-key
// contract: two bodies spelling the same model differently must hash
// to the same home replica.
func TestSpellingsShareOneHome(t *testing.T) {
	r0, r1 := newFakeReplica(t, "r0"), newFakeReplica(t, "r1")
	rt := newRouter(t, Config{Replicas: []string{r0.ts.URL, r1.ts.URL}})
	_, a := postRouter(t, rt, `{"kind": "iv-point", "model": {}, "vg": 0.5, "vd": 0.4}`)
	_, b := postRouter(t, rt, `{"kind": "iv-point", "model": {"family": "model1", "device": "default"}, "vg": 0.5, "vd": 0.4}`)
	if a == "" || a != b {
		t.Fatalf("equivalent spellings routed to %q and %q", a, b)
	}
}

// TestStreamedProxyFlushes drives an NDJSON stream through the router
// over real connections and asserts frames arrive one by one — each
// line readable before the backend has sent the next — proving the
// per-read flush, not post-hoc buffering.
func TestStreamedProxyFlushes(t *testing.T) {
	release := make(chan struct{})
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/jobs" {
			fmt.Fprint(w, `{"status": "ok"}`)
			return
		}
		w.Header().Set("Content-Type", "application/x-ndjson")
		rc := http.NewResponseController(w)
		fmt.Fprintln(w, `{"row": {"index": 0}}`)
		rc.Flush()
		<-release // hold the stream open until the client has row 0
		fmt.Fprintln(w, `{"done": {"kind": "family-sweep", "elapsed_ns": 1}}`)
		rc.Flush()
	}))
	defer backend.Close()

	rt := newRouter(t, Config{Replicas: []string{backend.URL}})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := http.Post(front.URL+"/v1/jobs", "application/json", strings.NewReader(jobBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.Header.Get(ReplicaHeader) == "" {
		t.Fatal("streamed response missing replica header")
	}
	sc := bufio.NewScanner(resp.Body)
	if !sc.Scan() {
		t.Fatalf("no first frame: %v", sc.Err())
	}
	if !strings.Contains(sc.Text(), `"index": 0`) {
		t.Fatalf("first frame wrong: %q", sc.Text())
	}
	// Row 0 arrived while the backend still holds the stream open: the
	// router flushed it through. Now let the backend finish.
	close(release)
	if !sc.Scan() || !strings.Contains(sc.Text(), `"done"`) {
		t.Fatalf("no done frame: %q %v", sc.Text(), sc.Err())
	}
}

// TestProbesRecoverReplica checks the active half of health: a replica
// that goes unhealthy is probed out of rotation, and — the part
// passive marking cannot do — probed back in when it recovers.
func TestProbesRecoverReplica(t *testing.T) {
	rep := newFakeReplica(t, "flappy")
	rt := newRouter(t, Config{
		Replicas:      []string{rep.ts.URL, "http://127.0.0.1:1"},
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  200 * time.Millisecond,
		Backoff:       time.Millisecond,
	})
	stop := rt.StartProbes(t.Context())
	defer stop()

	waitHealth := func(idx int, want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for rt.replicas[idx].healthy() != want && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		if rt.replicas[idx].healthy() != want {
			t.Fatalf("replica %d health never became %v", idx, want)
		}
	}

	// The dead address is probed out; the live replica stays in.
	waitHealth(1, false)
	waitHealth(0, true)

	// The live replica starts failing health checks: probed out...
	rep.healthy.Store(false)
	waitHealth(0, false)
	// ...and its gauge mirrors the flip.
	g := telemetry.Default().Gauge(fmt.Sprintf(telemetry.KeyClusterReplicaHealthyFmt, 0))
	if g.Value() != 0 {
		t.Fatalf("replica 0 gauge = %d after going down, want 0", g.Value())
	}

	// Recovery: health checks pass again and the replica re-enters
	// rotation with no router restart.
	rep.healthy.Store(true)
	waitHealth(0, true)
	if g.Value() != 1 {
		t.Fatalf("replica 0 gauge = %d after recovery, want 1", g.Value())
	}
	w, _ := postRouter(t, rt, jobBody)
	if w.Code != http.StatusOK {
		t.Fatalf("job after recovery: status %d", w.Code)
	}

	// Router health reflects the view.
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)
	var h Health
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatalf("router healthz not JSON: %v: %s", err, rec.Body)
	}
	if h.Status != "ok" || len(h.Replicas) != 2 || !h.Replicas[0].Healthy || h.Replicas[1].Healthy {
		t.Fatalf("router health view wrong: %+v", h)
	}
}

// TestOversizedBodyRejected pins the router's own body cap: a request
// the router will not buffer answers 413 without touching a replica.
func TestOversizedBodyRejected(t *testing.T) {
	rep := newFakeReplica(t, "r0")
	rt := newRouter(t, Config{Replicas: []string{rep.ts.URL}, MaxBody: 64})
	w, _ := postRouter(t, rt, `{"kind": "iv-point", "model": {}, "gates": [`+strings.Repeat("0.1,", 100)+`0.1]}`)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", w.Code)
	}
	if rep.jobs.Load() != 0 {
		t.Fatalf("oversized body reached a replica")
	}
}
