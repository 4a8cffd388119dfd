package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"strings"
	"testing"

	"cntfet/internal/core"
)

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

func TestJSONExportRoundTrips(t *testing.T) {
	out := capture(t, func() error {
		return run(2, "json", "", 1e-9, 1.5e-9, 25, -0.32, 300, false, false)
	})
	var d core.ModelData
	if err := json.Unmarshal([]byte(out), &d); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out)
	}
	m, err := core.FromData(d)
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec().Name != "Model 2" {
		t.Fatalf("spec %q", m.Spec().Name)
	}
}

func TestVHDLExport(t *testing.T) {
	out := capture(t, func() error {
		return run(1, "vhdl-ams", "my_cnt", 1e-9, 1.5e-9, 25, -0.32, 300, false, false)
	})
	if !strings.Contains(out, "entity my_cnt is") || !strings.Contains(out, "Model 1") {
		t.Fatalf("VHDL output:\n%s", out)
	}
}

func TestUnknownFormatRejected(t *testing.T) {
	if err := run(2, "yaml", "", 1e-9, 1.5e-9, 25, -0.32, 300, false, false); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestPlanarGeometryFlag(t *testing.T) {
	out := capture(t, func() error {
		return run(2, "json", "", 1.6e-9, 50e-9, 3.9, -0.05, 300, true, true)
	})
	if !strings.Contains(out, `"Geometry": 1`) {
		t.Fatalf("planar geometry not exported:\n%s", out)
	}
}
