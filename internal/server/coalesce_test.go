package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/maphash"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cntfet/internal/engine"
	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// TestCoalesceKeyCanonical pins the coalescing identity: spellings
// that resolve to the same engine run share a key, and any parameter
// that changes the run changes the key. This is the regression test
// for the key that used to re-marshal the decoded JobRequest, where
// `"family": "model1"` vs the omitted default (or an explicit preset
// temperature vs the zero value) defeated single-flight.
func TestCoalesceKeyCanonical(t *testing.T) {
	dev := fettoy.Default()
	base := JobRequest{Kind: "family-sweep", Model: &ModelSpec{}, Gates: []float64{0.5}, Drains: []float64{0.1}}
	key := jobKey
	want := key(base)

	same := map[string]JobRequest{
		"explicit default family":   {Kind: base.Kind, Model: &ModelSpec{Family: FamilyModel1}, Gates: base.Gates, Drains: base.Drains},
		"explicit default device":   {Kind: base.Kind, Model: &ModelSpec{Device: DeviceDefault}, Gates: base.Gates, Drains: base.Drains},
		"explicit preset T":         {Kind: base.Kind, Model: &ModelSpec{T: dev.T}, Gates: base.Gates, Drains: base.Drains},
		"explicit preset EF":        {Kind: base.Kind, Model: &ModelSpec{EF: &dev.EF}, Gates: base.Gates, Drains: base.Drains},
		"every default spelled out": {Kind: base.Kind, Model: &ModelSpec{Family: FamilyModel1, Device: DeviceDefault, T: dev.T, EF: &dev.EF}, Gates: base.Gates, Drains: base.Drains},
	}
	for name, jr := range same {
		if got := key(jr); got != want {
			t.Errorf("%s: key diverged:\n%s\nvs\n%s", name, got, want)
		}
	}

	otherEF := dev.EF + 0.1
	different := map[string]JobRequest{
		"other family":           {Kind: base.Kind, Model: &ModelSpec{Family: FamilyModel2}, Gates: base.Gates, Drains: base.Drains},
		"other T":                {Kind: base.Kind, Model: &ModelSpec{T: dev.T + 50}, Gates: base.Gates, Drains: base.Drains},
		"other EF":               {Kind: base.Kind, Model: &ModelSpec{EF: &otherEF}, Gates: base.Gates, Drains: base.Drains},
		"other grid":             {Kind: base.Kind, Model: &ModelSpec{}, Gates: base.Gates, Drains: []float64{0.2}},
		"other kind":             {Kind: "rms-compare", Model: &ModelSpec{}, Gates: base.Gates, Drains: base.Drains},
		"one worker not default": {Kind: base.Kind, Model: &ModelSpec{}, Gates: base.Gates, Drains: base.Drains, Workers: 1},
	}
	for name, jr := range different {
		if got := key(jr); got == want {
			t.Errorf("%s: key collided with the base request: %s", name, got)
		}
	}

	// The rms-compare reference model canonicalises the same way.
	refA := JobRequest{Kind: "rms-compare", Model: &ModelSpec{Family: FamilyModel2}, Ref: &ModelSpec{}, Gates: base.Gates, Drains: base.Drains}
	refB := JobRequest{Kind: "rms-compare", Model: &ModelSpec{Family: FamilyModel2}, Ref: &ModelSpec{Family: FamilyModel1, T: dev.T}, Gates: base.Gates, Drains: base.Drains}
	if key(refA) != key(refB) {
		t.Errorf("equivalent ref spellings did not coalesce:\n%s\nvs\n%s", key(refA), key(refB))
	}
}

// TestCoalesceDigestCollisionRunsUnshared pins the hashed flight map:
// a request whose digest names another job's flight runs unshared
// instead of waiting for (or sharing) that job's answer, and a request
// with the flight's own key bytes still joins it.
func TestCoalesceDigestCollisionRunsUnshared(t *testing.T) {
	g := &flightGroup{flights: map[uint64]*flight{}, seed: maphash.MakeSeed()}
	ours, theirs := []byte("job b"), []byte("job a")
	// Another job's flight, still running, under our digest.
	other := &flight{key: theirs, done: make(chan struct{})}
	h := maphash.Bytes(g.seed, ours)
	g.flights[h] = other
	req := engine.Request{Kind: engine.IVPoint, Model: &blockingSolver{started: make(chan struct{})}, Bias: fettoy.Bias{VG: 0.5, VD: 0.4}}

	// Bounded, so a group that wrongly joins the never-ending flight
	// fails instead of hanging.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, coalesced, err := g.run(ctx, ours, req)
	if err != nil || coalesced {
		t.Fatalf("colliding job: coalesced=%v err=%v, want an unshared run", coalesced, err)
	}
	if res.IDS != 0.5*0.4 { //lint:allow floatcmp the fake solver's product, computed the same way
		t.Fatalf("colliding job answered %g, want its own run's %g", res.IDS, 0.5*0.4)
	}
	if len(g.flights) != 1 || g.flights[h] != other {
		t.Fatal("the unshared run disturbed the other job's flight")
	}

	// Equal key bytes join the flight under its own digest (and give
	// up when their context ends, since the fake flight never finishes).
	g.flights[maphash.Bytes(g.seed, theirs)] = other
	short, stop := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer stop()
	if _, coalesced, err := g.run(short, append([]byte(nil), theirs...), req); !coalesced || !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("equal key: coalesced=%v err=%v, want to join and be abandoned", coalesced, err)
	}
}

// TestCoalescedSpellingsShareOneRun is the end-to-end half of the
// canonical-key fix: concurrent requests whose bodies spell the same
// job differently (omitted vs explicit family) must share one engine
// run — one miss, one hit, one sweep's worth of solver calls.
func TestCoalescedSpellingsShareOneRun(t *testing.T) {
	m := &blockingSolver{started: make(chan struct{}), delay: time.Millisecond}
	srv := New(Config{MaxInFlight: 8, Resolver: fakeResolver{m}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reg := telemetry.Default()
	hitsBefore := reg.Counter(telemetry.KeyServerCoalesceHits).Value()
	missesBefore := reg.Counter(telemetry.KeyServerCoalesceMisses).Value()

	do := func(body string) (string, error) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			return "", err
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, raw)
		}
		return string(raw), err
	}

	// The leader omits the family; the follower spells out the default.
	// Before canonicalisation these marshalled to different flight keys.
	implicit := strings.Replace(sweepBody, `"model": {"family": "model2"}`, `"model": {}`, 1)
	explicit := strings.Replace(sweepBody, `"model": {"family": "model2"}`, `"model": {"family": "model1", "device": "default"}`, 1)

	leaderBody := make(chan string, 1)
	leaderErr := make(chan error, 1)
	go func() {
		body, err := do(implicit)
		leaderBody <- body
		leaderErr <- err
	}()
	<-m.started

	var wg sync.WaitGroup
	var followerBody string
	var followerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		followerBody, followerErr = do(explicit)
	}()
	wg.Wait()
	leader := <-leaderBody
	if err := <-leaderErr; err != nil {
		t.Fatalf("leader: %v", err)
	}
	if followerErr != nil {
		t.Fatalf("follower: %v", followerErr)
	}
	if followerBody != leader {
		t.Fatalf("follower answer differs from leader's:\n%s\nvs\n%s", followerBody, leader)
	}
	if calls := m.calls.Load(); calls != 800 {
		t.Fatalf("solver ran %d points for 2 equivalent requests, want one run of 800", calls)
	}
	if got := reg.Counter(telemetry.KeyServerCoalesceMisses).Value() - missesBefore; got != 1 {
		t.Fatalf("coalesce misses delta %d, want 1", got)
	}
	if got := reg.Counter(telemetry.KeyServerCoalesceHits).Value() - hitsBefore; got != 1 {
		t.Fatalf("coalesce hits delta %d, want 1", got)
	}
}

// TestShutdownCancelsOrphanedFlight is the drain-bound regression for
// buffered jobs: a flight must not keep computing after an over-budget
// Shutdown returned. Shutdown's return cancels every request context
// (they derive from the drain context), so the waiting client gets its
// 499 long before the sweep could have finished, the solver stops
// mid-grid, and the canceled counter moves.
func TestShutdownCancelsOrphanedFlight(t *testing.T) {
	// 800 points x 5ms = 4s if the sweep ran to completion.
	m := &blockingSolver{started: make(chan struct{}), delay: 5 * time.Millisecond}
	srv := New(Config{Resolver: fakeResolver{m}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	canceledBefore := telemetry.Default().Counter(telemetry.KeyServerCanceled).Value()

	type answer struct {
		status int
		err    error
	}
	reqDone := make(chan answer, 1)
	go func() {
		resp, err := http.Post(fmt.Sprintf("http://%s/v1/jobs", l.Addr()),
			"application/json", strings.NewReader(sweepBody))
		a := answer{err: err}
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			a.status = resp.StatusCode
		}
		reqDone <- a
	}()
	<-m.started

	// A drain budget far shorter than the sweep: Shutdown must give up,
	// and giving up must kill the flight.
	shutCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(shutCtx); err == nil {
		t.Fatal("Shutdown drained a 4s sweep inside a 50ms budget")
	}

	select {
	case a := <-reqDone:
		if a.err != nil {
			t.Fatalf("in-flight request errored: %v", a.err)
		}
		if a.status != StatusClientClosedRequest {
			t.Fatalf("orphaned flight answered %d, want %d", a.status, StatusClientClosedRequest)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("flight kept running after shutdown: no response within 3s")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
	if calls := m.calls.Load(); calls == 0 || calls >= 800 {
		t.Fatalf("evaluated %d of 800 points; shutdown did not cancel mid-sweep", calls)
	}
	if got := telemetry.Default().Counter(telemetry.KeyServerCanceled).Value(); got <= canceledBefore {
		t.Fatalf("server.canceled did not move: %d -> %d", canceledBefore, got)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}

// postAsync posts body to url under ctx on its own goroutine; the
// returned channel yields the status and body (or the client error).
func postAsync(ctx context.Context, url, body string) <-chan coalesceAnswer {
	out := make(chan coalesceAnswer, 1)
	go func() {
		var a coalesceAnswer
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/jobs", strings.NewReader(body))
		if err == nil {
			var resp *http.Response
			if resp, err = http.DefaultClient.Do(req); err == nil {
				var raw []byte
				raw, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				a.status, a.body = resp.StatusCode, string(raw)
			}
		}
		a.err = err
		out <- a
	}()
	return out
}

type coalesceAnswer struct {
	status int
	body   string
	err    error
}

// waitCounter polls c until it has moved by at least delta from
// before, failing the test after 5 s.
func waitCounter(t *testing.T, c *telemetry.Counter, before, delta int64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.Value()-before < delta; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("counter moved by %d, want %d", c.Value()-before, delta)
		}
	}
}

// TestLeaderDisconnectRerunsForFollower pins the orphaned-flight retry:
// the leader runs the job under its own request context, so when it
// hangs up mid-sweep its run fails; the follower waiting on that
// flight must not share the leader's cancellation but run the job
// afresh and answer a 200 bit-identical to an unshared run. The solver
// work is the leader's partial run plus exactly one full run, and the
// coalesce counters count one join (the follower) and two led flights.
func TestLeaderDisconnectRerunsForFollower(t *testing.T) {
	m := &blockingSolver{started: make(chan struct{}), delay: time.Millisecond}
	srv := New(Config{MaxInFlight: 8, Resolver: fakeResolver{m}})
	// callsAtRun records the solver calls made before each led run.
	var mu sync.Mutex
	var callsAtRun []int64
	srv.flights.beforeRun = func(context.Context) {
		mu.Lock()
		callsAtRun = append(callsAtRun, m.calls.Load())
		mu.Unlock()
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reg := telemetry.Default()
	hits, misses := reg.Counter(telemetry.KeyServerCoalesceHits), reg.Counter(telemetry.KeyServerCoalesceMisses)
	hitsBefore, missesBefore := hits.Value(), misses.Value()

	leaderCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	leader := postAsync(leaderCtx, ts.URL, sweepBody)
	<-m.started
	follower := postAsync(context.Background(), ts.URL, sweepBody)
	waitCounter(t, hits, hitsBefore, 1) // the follower has joined
	hangUp()
	if a := <-leader; a.err == nil {
		t.Fatalf("leader's client got status %d after hanging up", a.status)
	}

	a := <-follower
	if a.err != nil || a.status != http.StatusOK {
		t.Fatalf("follower of a hung-up leader answered %d (%v): %s", a.status, a.err, a.body)
	}
	if d := hits.Value() - hitsBefore; d != 1 {
		t.Fatalf("coalesce hits delta %d, want 1 (the follower joining)", d)
	}
	if d := misses.Value() - missesBefore; d != 2 {
		t.Fatalf("coalesce misses delta %d, want 2 (the leader's run and the follower's re-run)", d)
	}
	// Bit-identical but for elapsed_ns and metrics: the metrics are
	// process-wide counter deltas over the run, which other jobs'
	// engine counters can land in. The answer's JSON spells every float
	// exactly, so equal bytes mean equal bits.
	var got JobResponse
	if err := json.Unmarshal([]byte(a.body), &got); err != nil {
		t.Fatal(err)
	}
	want := decodeJob(t, post(t, New(Config{Resolver: fakeResolver{&blockingSolver{started: make(chan struct{})}}}).Handler(), sweepBody))
	if got.Metrics[telemetry.KeySweepPoints] != 800 {
		t.Fatalf("follower's answer reports %d sweep points, want 800", got.Metrics[telemetry.KeySweepPoints])
	}
	got.ElapsedNS, want.ElapsedNS = 0, 0
	got.Metrics, want.Metrics = nil, nil
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatal("follower's re-run answered differently from an unshared run")
	}

	mu.Lock()
	defer mu.Unlock()
	if len(callsAtRun) != 2 || callsAtRun[0] != 0 {
		t.Fatalf("led runs started after %v solver calls, want [0 partial]", callsAtRun)
	}
	partial := callsAtRun[1]
	if partial == 0 || partial >= 800 {
		t.Fatalf("leader's run made %d of 800 calls before it was canceled", partial)
	}
	if calls := m.calls.Load(); calls != partial+800 {
		t.Fatalf("solver made %d calls, want the leader's %d plus one full run of 800", calls, partial)
	}
}

// TestFollowerLeavingKeepsLeaderRunning: a follower that hangs up
// answers its own 499 and leaves, and the leader's run — which belongs
// to the leader's request alone — completes with one full sweep.
func TestFollowerLeavingKeepsLeaderRunning(t *testing.T) {
	m := &blockingSolver{started: make(chan struct{}), delay: time.Millisecond}
	srv := New(Config{MaxInFlight: 8, Resolver: fakeResolver{m}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reg := telemetry.Default()
	hits, misses := reg.Counter(telemetry.KeyServerCoalesceHits), reg.Counter(telemetry.KeyServerCoalesceMisses)
	canceled := reg.Counter(telemetry.KeyServerCanceled)
	hitsBefore, missesBefore, canceledBefore := hits.Value(), misses.Value(), canceled.Value()

	leader := postAsync(context.Background(), ts.URL, sweepBody)
	<-m.started
	followerCtx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	follower := postAsync(followerCtx, ts.URL, sweepBody)
	waitCounter(t, hits, hitsBefore, 1)
	hangUp()
	if a := <-follower; a.err == nil {
		t.Fatalf("follower's client got status %d after hanging up", a.status)
	}
	waitCounter(t, canceled, canceledBefore, 1) // the follower's 499

	a := <-leader
	if a.err != nil || a.status != http.StatusOK {
		t.Fatalf("leader answered %d (%v) after its follower left: %s", a.status, a.err, a.body)
	}
	if calls := m.calls.Load(); calls != 800 {
		t.Fatalf("solver made %d calls, want one full run of 800", calls)
	}
	if d := misses.Value() - missesBefore; d != 1 {
		t.Fatalf("coalesce misses delta %d, want 1", d)
	}
	if d := hits.Value() - hitsBefore; d != 1 {
		t.Fatalf("coalesce hits delta %d, want 1", d)
	}
}

// TestShutdownCancelsStreamedJob is the drain bound for streams, which
// never coalesce: a streamed 800-point sweep (4 s at 5 ms a point)
// caught by a Shutdown with a 50 ms budget must stop within 1 s of the
// Shutdown call, ending its stream with a canceled error frame, instead
// of running to completion after Shutdown gave up.
func TestShutdownCancelsStreamedJob(t *testing.T) {
	m := &blockingSolver{started: make(chan struct{}), delay: 5 * time.Millisecond}
	srv := New(Config{Resolver: fakeResolver{m}})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(l) }()

	var streamEnd atomic.Int64 // unix ns when the client saw the stream end
	last := make(chan string, 1)
	go func() {
		req, err := http.NewRequest(http.MethodPost, fmt.Sprintf("http://%s/v1/jobs", l.Addr()), strings.NewReader(sweepBody))
		if err != nil {
			last <- err.Error()
			return
		}
		req.Header.Set("Accept", "application/x-ndjson")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			last <- err.Error()
			return
		}
		defer resp.Body.Close()
		var line string
		for sc := bufio.NewScanner(resp.Body); sc.Scan(); {
			line = sc.Text()
		}
		streamEnd.Store(time.Now().UnixNano())
		last <- line
	}()
	<-m.started

	shutCtx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := srv.Shutdown(shutCtx); err == nil {
		t.Fatal("Shutdown drained a 4s stream inside a 50ms budget")
	}

	var frame string
	select {
	case frame = <-last:
	case <-time.After(5 * time.Second):
		t.Fatal("stream kept running after shutdown: no end within 5s")
	}
	if took := time.Duration(streamEnd.Load() - start.UnixNano()); took > time.Second {
		t.Fatalf("stream ended %s after Shutdown began, want under 1s", took)
	}
	var f StreamFrame
	if err := json.Unmarshal([]byte(frame), &f); err != nil || f.Error == nil || f.Error.Class != "canceled" {
		t.Fatalf("stream's last frame is not a canceled error: %q", frame)
	}
	if calls := m.calls.Load(); calls == 0 || calls >= 800 {
		t.Fatalf("evaluated %d of 800 points; shutdown did not cancel mid-stream", calls)
	}
	if err := <-serveDone; err != http.ErrServerClosed {
		t.Fatalf("Serve returned %v, want http.ErrServerClosed", err)
	}
}
