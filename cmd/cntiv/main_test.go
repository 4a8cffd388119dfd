package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cntfet/internal/engine"
	"cntfet/internal/telemetry"
)

// capture runs fn with os.Stdout redirected and returns what it wrote.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	errRun := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if errRun != nil {
		t.Fatalf("run: %v", errRun)
	}
	return out
}

func TestRunFigure7(t *testing.T) {
	out := capture(t, func() error { return run(context.Background(), 7, 300, -0.32, "", 2, 13, false) })
	if !strings.Contains(out, "figure 7") || !strings.Contains(out, "rms error") {
		t.Fatalf("output:\n%s", out)
	}
	if !strings.Contains(out, "theory_vg0.60") {
		t.Fatalf("CSV headers missing:\n%s", out)
	}
}

func TestRunCustomSweep(t *testing.T) {
	out := capture(t, func() error { return run(context.Background(), 0, 300, -0.32, "0.4,0.6", 1, 7, true) })
	if !strings.Contains(out, "custom sweep") || !strings.Contains(out, "legend") {
		t.Fatalf("output:\n%s", out)
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	if err := run(context.Background(), 99, 300, -0.32, "", 2, 13, false); err == nil {
		t.Fatal("unknown figure accepted")
	}
	if err := run(context.Background(), 0, 300, -0.32, "abc", 2, 13, false); err == nil {
		t.Fatal("bad gate list accepted")
	}
}

// TestTraceWrittenOnCancel is the trace-on-failure regression: a run
// interrupted mid-sweep (as SIGINT does, exit 130) still writes the
// -trace file, holding the solver events the ring collected up to the
// cancellation.
func TestTraceWrittenOnCancel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := traced(path, func() error {
		// Cancel once the sweep has logged its first reference solve;
		// 7 rows of 2000 points leave it far from done.
		go func(sink *telemetry.Tracer) {
			for sink.Len() == 0 && ctx.Err() == nil {
				time.Sleep(100 * time.Microsecond)
			}
			cancel()
		}(traceSink)
		return run(ctx, 7, 300, -0.32, "", 2, 2000, false)
	})
	if !errors.Is(err, engine.ErrCanceled) {
		t.Fatalf("canceled run returned %v, want ErrCanceled", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("canceled run left no trace file: %v", err)
	}
	defer f.Close()
	events := 0
	for sc := bufio.NewScanner(f); sc.Scan(); events++ {
		var ev struct{ Kind string }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil || ev.Kind == "" {
			t.Fatalf("trace line %d is not an event: %q", events+1, sc.Text())
		}
	}
	if events == 0 {
		t.Fatal("canceled run's trace file holds no events")
	}
}
