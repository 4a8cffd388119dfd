package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cntfet/internal/engine"
)

// The cntspice binary is a thin shell around netlist.Parse + Run, so
// the test exercises it end to end as a subprocess against a shipped
// deck.
func TestCLIAgainstShippedDeck(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	if runtime.GOOS == "windows" {
		t.Skip("posix-only test harness")
	}
	bin := filepath.Join(t.TempDir(), "cntspice")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	deck := filepath.Join("..", "..", "decks", "commonsource.cir")
	if _, err := os.Stat(deck); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(bin, deck).CombinedOutput()
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out)
	}
	s := string(out)
	if !strings.Contains(s, "Operating point") || !strings.Contains(s, "DC sweep of VIN") {
		t.Fatalf("output:\n%s", s)
	}
}

func TestCLIStdinAndErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	if runtime.GOOS == "windows" {
		t.Skip("posix-only test harness")
	}
	bin := filepath.Join(t.TempDir(), "cntspice")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	cmd := exec.Command(bin, "-")
	cmd.Stdin = strings.NewReader("divider\nV1 a 0 2\nR1 a b 1k\nR2 b 0 1k\n.op\n.print v(b)\n")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("stdin run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "1") {
		t.Fatalf("divider output:\n%s", out)
	}
	// Bad deck: nonzero exit.
	cmd = exec.Command(bin, "-")
	cmd.Stdin = strings.NewReader("t\nR1 x\n.op\n")
	if err := cmd.Run(); err == nil {
		t.Fatal("bad deck exited zero")
	}
	// Missing file: nonzero exit.
	if err := exec.Command(bin, "/definitely/not/here.cir").Run(); err == nil {
		t.Fatal("missing file exited zero")
	}
}

// cancelAfter is a context whose Err reports context.Canceled from its
// (n+1)-th check on, so a run stops at a known point.
type cancelAfter struct {
	context.Context
	n atomic.Int32
}

func (c *cancelAfter) Err() error {
	if c.n.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestTraceWrittenOnCancel is the trace-on-failure regression: a deck
// canceled between its analyses (as SIGINT cancels it, exit 130) still
// writes the -trace file, holding the events of the analysis that ran.
// The context passes the engine's check and the one before .op, and
// cancels before .tran.
func TestTraceWrittenOnCancel(t *testing.T) {
	dir := t.TempDir()
	deck := filepath.Join(dir, "rc.cir")
	src := "rc\nV1 in 0 PULSE(0 1 1n 0.1n 0.1n 2n 4n)\nR1 in out 1k\nC1 out 0 1p\n.op\n.tran 0.2n 4n\n.end\n"
	if err := os.WriteFile(deck, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "trace.jsonl")
	ctx := &cancelAfter{Context: context.Background()}
	ctx.n.Store(2)
	err := run(ctx, deck, path, false)
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("canceled run returned %v, want ErrCanceled", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("canceled run left no trace file: %v", err)
	}
	defer f.Close()
	kinds := map[string]int{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var ev struct {
			Kind  string
			Attrs map[string]float64
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Kind == "" {
			t.Fatalf("trace line is not an event: %q", sc.Text())
		}
		if _, ok := ev.Attrs["t"]; !ok {
			t.Fatalf("circuit event without simulation time: %q", sc.Text())
		}
		kinds[ev.Kind]++
	}
	if kinds["circuit.dc.solve"] == 0 || kinds["circuit.tran.step"] != 0 {
		t.Fatalf("trace holds %v, want the .op's DC solves and no transient step", kinds)
	}
}

// firstWrite is an io.Writer that closes started on its first write.
type firstWrite struct {
	once    sync.Once
	started chan struct{}
}

func (w *firstWrite) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.started) })
	return len(p), nil
}

// TestInterruptStopsLongTransient: SIGINT stops a .tran mid-run. The
// deck's 2M fixed steps run for about 9 s uncanceled (2-core Xeon); the
// interrupted binary must exit 130 soon after the signal, under a 3 s
// bound that leaves room for a loaded machine (it takes well under
// 1 s unloaded), and still write its -trace file, holding the
// transient's steps.
func TestInterruptStopsLongTransient(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	if runtime.GOOS == "windows" {
		t.Skip("posix-only test harness")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "cntspice")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("build: %v\n%s", err, out)
	}
	deck := filepath.Join(dir, "rc.cir")
	src := "rc\nV1 in 0 PULSE(0 1 1n 0.1n 0.1n 2n 4n)\nR1 in out 1k\nC1 out 0 1p\n.tran 0.01n 20u\n.end\n"
	if err := os.WriteFile(deck, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	trace := filepath.Join(dir, "trace.jsonl")
	cmd := exec.Command(bin, "-trace", trace, deck)
	stdout := &firstWrite{started: make(chan struct{})}
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = stdout, &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The deck's title line comes out just before the run starts.
	select {
	case <-stdout.started:
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("cntspice printed nothing within 10 s")
	}
	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	sent := time.Now()
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(3 * time.Second):
		cmd.Process.Kill()
		<-done
		t.Fatal("cntspice still running 3 s after SIGINT")
	}
	t.Logf("exited %v after SIGINT", time.Since(sent))
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 130 {
		t.Fatalf("interrupted run: %v, want exit status 130; stderr:\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "canceled") {
		t.Errorf("stderr does not report the cancellation:\n%s", stderr.String())
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatalf("interrupted run left no trace file: %v", err)
	}
	if !bytes.Contains(raw, []byte(`"circuit.tran.step"`)) {
		t.Fatalf("trace holds no transient step (%d bytes)", len(raw))
	}
}
