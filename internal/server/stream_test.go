package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cntfet/internal/telemetry"
)

// postStream sends a job with an NDJSON Accept header through a
// recorder and decodes every frame.
func postStream(t *testing.T, h http.Handler, body string) []StreamFrame {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("stream status %d: %s", w.Code, w.Body)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("stream content type %q", ct)
	}
	return decodeFrames(t, w.Body.String())
}

func decodeFrames(t *testing.T, body string) []StreamFrame {
	t.Helper()
	var frames []StreamFrame
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		var f StreamFrame
		if err := json.Unmarshal([]byte(line), &f); err != nil {
			t.Fatalf("bad frame %q: %v", line, err)
		}
		frames = append(frames, f)
	}
	return frames
}

// rowsOf splits a frame sequence into its row frames and the
// mandatory trailing done frame.
func rowsOf(t *testing.T, frames []StreamFrame) ([]StreamRow, JobResponse) {
	t.Helper()
	if len(frames) == 0 || frames[len(frames)-1].Done == nil {
		t.Fatalf("stream did not end in a done frame: %+v", frames)
	}
	var rows []StreamRow
	for _, f := range frames[:len(frames)-1] {
		if f.Error != nil {
			t.Fatalf("error frame in healthy stream: %+v", f.Error)
		}
		if f.Row != nil {
			rows = append(rows, *f.Row)
		}
	}
	return rows, *frames[len(frames)-1].Done
}

// TestStreamedFamilyParity is the tentpole contract: a streamed
// family sweep delivers exactly the rows the buffered response would
// — same count, same order, bit-for-bit currents — at the default
// worker count, at one worker and at several, with the done frame
// carrying the summary but no family.
func TestStreamedFamilyParity(t *testing.T) {
	h := New(Config{}).Handler()
	for _, workers := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			body := fmt.Sprintf(`{
				"kind": "family-sweep",
				"model": {"family": "model2"},
				"gates": [0.3, 0.45, 0.6],
				"drains": [0, 0.2, 0.4, 0.6],
				"workers": %d}`, workers)
			buffered := decodeJob(t, post(t, h, body))
			rows, done := rowsOf(t, postStream(t, h, strings.Replace(body, `"kind"`, `"stream": true, "kind"`, 1)))

			if len(rows) != len(buffered.Family) {
				t.Fatalf("streamed %d rows, buffered %d curves", len(rows), len(buffered.Family))
			}
			for i, row := range rows {
				want := buffered.Family[i]
				if row.Index != i || row.Ref {
					t.Fatalf("row %d mislabeled: %+v", i, row)
				}
				if row.VG != want.VG { //lint:allow floatcmp streamed rows must match buffered bit-for-bit
					t.Fatalf("row %d VG %g, buffered %g", i, row.VG, want.VG)
				}
				for j := range want.IDS {
					if row.IDS[j] != want.IDS[j] || row.VDS[j] != want.VDS[j] { //lint:allow floatcmp streamed rows must match buffered bit-for-bit
						t.Fatalf("row %d point %d differs: %g vs %g", i, j, row.IDS[j], want.IDS[j])
					}
				}
			}
			if len(done.Family) != 0 {
				t.Fatalf("done frame re-buffers the family: %d curves", len(done.Family))
			}
			if done.Kind != "family-sweep" || done.ElapsedNS <= 0 {
				t.Fatalf("done frame not a summary: %+v", done)
			}
		})
	}
}

// TestStreamedRMSCompare checks compare streams: all reference rows
// first (Ref set), then the model rows, with the done frame keeping
// the RMS summary while dropping both buffered families.
func TestStreamedRMSCompare(t *testing.T) {
	h := New(Config{}).Handler()
	body := `{
		"kind": "rms-compare",
		"model": {"family": "model2"},
		"ref": {"family": "model1"},
		"gates": [0.4, 0.6],
		"drains": [0, 0.3, 0.6]}`
	buffered := decodeJob(t, post(t, h, body))
	rows, done := rowsOf(t, postStream(t, h, body))

	if len(rows) != 4 {
		t.Fatalf("streamed %d rows, want 2 ref + 2 model", len(rows))
	}
	for i, row := range rows {
		wantRef := i < 2
		if row.Ref != wantRef || row.Index != i%2 {
			t.Fatalf("row %d: ref=%v index=%d, want ref=%v index=%d", i, row.Ref, row.Index, wantRef, i%2)
		}
	}
	for i := range buffered.RefFamily {
		if rows[i].VG != buffered.RefFamily[i].VG { //lint:allow floatcmp streamed rows must match buffered bit-for-bit
			t.Fatalf("ref row %d VG drifted", i)
		}
	}
	if len(done.RMSPercent) != 2 || done.RMSPercent[0] != buffered.RMSPercent[0] { //lint:allow floatcmp same job must score same RMS
		t.Fatalf("done RMS %v, buffered %v", done.RMSPercent, buffered.RMSPercent)
	}
	if len(done.Family) != 0 || len(done.RefFamily) != 0 {
		t.Fatalf("done frame re-buffers families: %+v", done)
	}
}

// TestStreamedMonteCarlo checks MC streams: monotone running
// checkpoints ending at the full sample count, a final mean matching
// the buffered run bit-for-bit (same seed, same draws), and a done
// frame without the sample array.
func TestStreamedMonteCarlo(t *testing.T) {
	h := New(Config{}).Handler()
	body := `{
		"kind": "monte-carlo",
		"model": {"family": "model2"},
		"vg": 0.5, "vd": 0.4,
		"ef_sigma": 0.02, "samples": 25, "seed": 7}`
	buffered := decodeJob(t, post(t, h, body))
	frames := postStream(t, h, body)

	var mcs []StreamMC
	for _, f := range frames[:len(frames)-1] {
		if f.MC == nil {
			t.Fatalf("non-MC frame in MC stream: %+v", f)
		}
		mcs = append(mcs, *f.MC)
	}
	if len(mcs) == 0 || mcs[len(mcs)-1].Done != 25 {
		t.Fatalf("checkpoints did not reach 25: %+v", mcs)
	}
	for i := 1; i < len(mcs); i++ {
		if mcs[i].Done <= mcs[i-1].Done || mcs[i].Total != 25 {
			t.Fatalf("checkpoints not monotone: %+v", mcs)
		}
	}
	// The running (Welford) mean and the summary's sum-based mean agree
	// to rounding, not bit-for-bit.
	if got := mcs[len(mcs)-1].Mean; math.Abs(got-buffered.MC.Mean) > 1e-12*math.Abs(buffered.MC.Mean) {
		t.Fatalf("streamed final mean %g, buffered %g", got, buffered.MC.Mean)
	}
	done := frames[len(frames)-1].Done
	if done == nil || done.MC == nil || len(done.MC.Samples) != 0 {
		t.Fatalf("done frame should summarise without samples: %+v", done)
	}
	if done.MC.Mean != buffered.MC.Mean { //lint:allow floatcmp same seed must reproduce the same mean
		t.Fatalf("done mean %g, buffered %g", done.MC.Mean, buffered.MC.Mean)
	}
}

// TestStreamMidDisconnect is the disconnect satellite: a client that
// reads the first rows of a stream and hangs up must have received
// those rows while the sweep was still running, and the server must
// cancel the job promptly (server.canceled moves, solver stops well
// short of the grid) without leaking goroutines.
func TestStreamMidDisconnect(t *testing.T) {
	m := &blockingSolver{started: make(chan struct{}), delay: time.Millisecond}
	srv := New(Config{Resolver: fakeResolver{m}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	canceledBefore := telemetry.Default().Counter(telemetry.KeyServerCanceled).Value()
	goroutinesBefore := runtime.NumGoroutine()

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(sweepBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}

	// Read exactly two row frames, then walk away. Each arriving row
	// while the solver is mid-grid proves per-row flushing.
	sc := bufio.NewScanner(resp.Body)
	for i := 0; i < 2; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d rows: %v", i, sc.Err())
		}
		var f StreamFrame
		if err := json.Unmarshal(sc.Bytes(), &f); err != nil || f.Row == nil {
			t.Fatalf("frame %d not a row: %q", i, sc.Text())
		}
		if f.Row.Index != i {
			t.Fatalf("row %d arrived with index %d", i, f.Row.Index)
		}
	}
	if calls := m.calls.Load(); calls >= 800 {
		t.Fatalf("2 rows read only after all %d points: stream not incremental", calls)
	}
	resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for telemetry.Default().Counter(telemetry.KeyServerCanceled).Value() <= canceledBefore &&
		time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := telemetry.Default().Counter(telemetry.KeyServerCanceled).Value(); got <= canceledBefore {
		t.Fatalf("server.canceled did not move after mid-stream disconnect: %d -> %d", canceledBefore, got)
	}
	if calls := m.calls.Load(); calls >= 800 {
		t.Fatalf("evaluated all %d points; disconnect did not cancel the sweep", calls)
	}
	for runtime.NumGoroutine() > goroutinesBefore+2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutinesBefore+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", goroutinesBefore, n)
	}
}

// TestCoalescedRequestsShareOneRun checks single-flight: identical
// buffered requests arriving while one is in flight share its engine
// run — one miss, N-1 hits, one sweep's worth of solver calls, and
// byte-identical responses.
func TestCoalescedRequestsShareOneRun(t *testing.T) {
	m := &blockingSolver{started: make(chan struct{}), delay: time.Millisecond}
	srv := New(Config{MaxInFlight: 8, Resolver: fakeResolver{m}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reg := telemetry.Default()
	hitsBefore := reg.Counter(telemetry.KeyServerCoalesceHits).Value()
	missesBefore := reg.Counter(telemetry.KeyServerCoalesceMisses).Value()

	do := func() (string, int, error) {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(sweepBody))
		if err != nil {
			return "", 0, err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		return string(body), resp.StatusCode, err
	}

	leaderBody := make(chan string, 1)
	go func() {
		body, code, err := do()
		if err != nil || code != http.StatusOK {
			body = ""
		}
		leaderBody <- body
	}()
	<-m.started

	// Three followers land while the leader's sweep is in flight.
	var wg sync.WaitGroup
	follower := make([]string, 3)
	for i := range follower {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, code, err := do()
			if err == nil && code == http.StatusOK {
				follower[i] = body
			}
		}()
	}
	wg.Wait()
	leader := <-leaderBody
	if leader == "" {
		t.Fatal("leader request failed")
	}
	for i, body := range follower {
		if body != leader {
			t.Fatalf("follower %d answer differs from leader's:\n%s\nvs\n%s", i, body, leader)
		}
	}
	if calls := m.calls.Load(); calls != 800 {
		t.Fatalf("solver ran %d points for 4 identical requests, want one run of 800", calls)
	}
	if got := reg.Counter(telemetry.KeyServerCoalesceMisses).Value() - missesBefore; got != 1 {
		t.Fatalf("coalesce misses delta %d, want 1", got)
	}
	if got := reg.Counter(telemetry.KeyServerCoalesceHits).Value() - hitsBefore; got != 3 {
		t.Fatalf("coalesce hits delta %d, want 3", got)
	}
}

// TestWantsStream pins the two opt-in paths and their absence.
func TestWantsStream(t *testing.T) {
	mk := func(accept string) *http.Request {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", nil)
		if accept != "" {
			r.Header.Set("Accept", accept)
		}
		return r
	}
	if wantsStream(JobRequest{}, mk("")) {
		t.Fatal("plain request streamed")
	}
	if !wantsStream(JobRequest{Stream: true}, mk("")) {
		t.Fatal("stream field ignored")
	}
	if !wantsStream(JobRequest{}, mk("application/x-ndjson")) {
		t.Fatal("Accept header ignored")
	}
	if !wantsStream(JobRequest{}, mk("text/html, application/x-ndjson;q=0.9")) {
		t.Fatal("Accept list ignored")
	}
	if wantsStream(JobRequest{}, mk("application/json")) {
		t.Fatal("JSON Accept streamed")
	}
}
