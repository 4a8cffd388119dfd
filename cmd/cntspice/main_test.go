package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

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
