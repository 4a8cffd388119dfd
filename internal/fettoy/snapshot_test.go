package fettoy

import (
	"bytes"
	"strings"
	"testing"

	"cntfet/internal/telemetry"
)

// smallTable keeps snapshot tests fast: a coarse grid builds in well
// under a millisecond.
func smallTableOptions() TableOptions {
	return TableOptions{RelTol: 1e-4, InitIntervals: 16, MaxNodes: 256}
}

func builtTable(t *testing.T, dev Device) *ChargeTable {
	t.Helper()
	m, err := New(dev)
	if err != nil {
		t.Fatal(err)
	}
	tab := m.EnableTable(smallTableOptions())
	tab.Build()
	return tab
}

// TestSnapshotRoundTrip is the core warm-start contract: a grid
// written and read back is bit-identical, the load moves
// snapshot_loads but NOT table.builds, and lookups through the loaded
// table match the built one exactly.
func TestSnapshotRoundTrip(t *testing.T) {
	src := builtTable(t, Default())
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	m2, err := New(Default())
	if err != nil {
		t.Fatal(err)
	}
	dst := m2.EnableTable(smallTableOptions())

	reg := telemetry.Default()
	mark := reg.CounterMark(nil)
	if err := dst.ReadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	delta := reg.CounterDelta(mark)
	if d := delta[telemetry.KeyFettoyTableBuilds]; d != 0 {
		t.Fatalf("loading a snapshot counted %d table builds, want 0", d)
	}
	if d := delta[telemetry.KeyFettoyTableSnapshotLoads]; d != 1 {
		t.Fatalf("snapshot_loads moved by %d, want 1", d)
	}

	a, b := src.data.Load(), dst.data.Load()
	if b == nil {
		t.Fatal("loaded table still unbuilt")
	}
	if len(a.u) != len(b.u) || a.scale != b.scale { //lint:allow floatcmp snapshot round-trip must be bit-exact
		t.Fatalf("grid shape differs: %d/%g vs %d/%g", len(a.u), a.scale, len(b.u), b.scale)
	}
	for i := range a.u {
		if a.u[i] != b.u[i] || a.n[i] != b.n[i] || a.np[i] != b.np[i] { //lint:allow floatcmp snapshot round-trip must be bit-exact
			t.Fatalf("node %d differs after round trip", i)
		}
	}
	for _, u := range []float64{-0.4, 0, 0.13, 0.4} {
		an, anp := src.At(u)
		bn, bnp := dst.At(u)
		if an != bn || anp != bnp { //lint:allow floatcmp identical grids must interpolate identically
			t.Fatalf("lookup at u=%g differs: (%g,%g) vs (%g,%g)", u, an, anp, bn, bnp)
		}
	}
}

// TestSnapshotInfo checks the header-only reader.
func TestSnapshotInfo(t *testing.T) {
	src := builtTable(t, Default())
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	info, err := ReadSnapshotInfo(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Device != Default() { //lint:allow floatcmp snapshot must preserve the device bit-exactly
		t.Fatalf("device drifted through the snapshot: %+v", info.Device)
	}
	if info.Nodes != src.Nodes() || info.Nodes < 17 {
		t.Fatalf("info.Nodes = %d, table has %d", info.Nodes, src.Nodes())
	}
}

// TestSnapshotRejectsCorruption flips one payload byte and expects
// the checksum to catch it.
func TestSnapshotRejectsCorruption(t *testing.T) {
	src := builtTable(t, Default())
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 0x40
	if _, err := ReadSnapshotInfo(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt snapshot accepted: %v", err)
	}
}

// TestSnapshotRejectsWrongIdentity checks that a snapshot built for a
// different device (or different table options) cannot be published
// into this table.
func TestSnapshotRejectsWrongIdentity(t *testing.T) {
	src := builtTable(t, Default())
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}

	hot := Default()
	hot.T = 400
	m, err := New(hot)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableTable(smallTableOptions()).ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("snapshot for a 300 K device loaded into a 400 K table")
	}

	m2, err := New(Default())
	if err != nil {
		t.Fatal(err)
	}
	opt := smallTableOptions()
	opt.RelTol = 1e-5
	if err := m2.EnableTable(opt).ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("snapshot with different RelTol accepted")
	}
}

// TestSnapshotEdgeCases covers the remaining refusals: writing an
// unbuilt table, loading over a built one, truncation, bad magic.
func TestSnapshotEdgeCases(t *testing.T) {
	m, err := New(Default())
	if err != nil {
		t.Fatal(err)
	}
	empty := m.EnableTable(smallTableOptions())
	if err := empty.WriteSnapshot(&bytes.Buffer{}); err == nil {
		t.Fatal("unbuilt table serialized")
	}

	src := builtTable(t, Default())
	var buf bytes.Buffer
	if err := src.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := src.ReadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("snapshot loaded over an already-built table")
	}
	if _, err := ReadSnapshotInfo(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	// A version-1 table, from the adaptive builder, is refused like any
	// foreign magic.
	for _, magic := range []string{"NOTATBLE", "CNTTABv1"} {
		bad := append([]byte(magic), buf.Bytes()[8:]...)
		if _, err := ReadSnapshotInfo(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
			t.Fatalf("magic %q accepted: %v", magic, err)
		}
	}
}
