package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

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

// TestShutdownCancelsOrphanedFlight is the drain-bound regression: a
// coalesced flight is detached from its leader's connection, so before
// the drain context existed it would keep computing after an
// over-budget Shutdown returned. Now Shutdown's return must cancel the
// flight promptly — the waiting client gets its 499 long before the
// sweep could have finished, the solver stops mid-grid, and the
// canceled counter moves.
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
