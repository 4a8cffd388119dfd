package server

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// refBody is the iv-point job every snapshot test resolves: the
// table-backed reference family on the default device.
const refBody = `{"kind": "iv-point", "model": {"family": "reference"}, "vg": 0.5, "vd": 0.4}`

// refSnapshotPath is where the cache expects the reference model's
// snapshot inside dir — computed through the same key path Resolve
// uses, so the tests plant files exactly where a warm start looks.
func refSnapshotPath(t *testing.T, dir string) string {
	t.Helper()
	spec := ModelSpec{Family: FamilyReference}
	dev, err := spec.device()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, snapshotFileName(specCacheKey(spec, dev)))
}

// TestSnapshotIdentityMismatchRebuilds pins the identity check: a
// snapshot at the right path for the right key string, but built with
// different table options, must be refused — counted as a
// server.snapshot.errors — and rebuilt, never silently served. Serving
// it would answer physics questions from a grid refined to the wrong
// tolerance.
func TestSnapshotIdentityMismatchRebuilds(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.Default()

	// Plant a decoy: same device, same key, coarser tolerance than the
	// default the server's warm start expects.
	ref, err := fettoy.New(fettoy.Default())
	if err != nil {
		t.Fatal(err)
	}
	decoy := ref.EnableTable(fettoy.TableOptions{RelTol: 1e-5})
	decoy.Build()
	f, err := os.Create(refSnapshotPath(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	if err := decoy.WriteSnapshot(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Baselines after the decoy build, so its own table build does not
	// pollute the deltas.
	errsBefore := reg.Counter(telemetry.KeyServerSnapshotErrors).Value()
	buildsBefore := reg.Counter(telemetry.KeyFettoyTableBuilds).Value()
	loadsBefore := reg.Counter(telemetry.KeyFettoyTableSnapshotLoads).Value()

	clean := decodeJob(t, post(t, New(Config{}).Handler(), refBody))
	got := decodeJob(t, post(t, New(Config{SnapshotDir: dir}).Handler(), refBody))
	if got.IDS != clean.IDS { //lint:allow floatcmp a refused snapshot must end in a bit-identical rebuild
		t.Fatalf("mismatched snapshot changed the answer: %g, want %g", got.IDS, clean.IDS)
	}
	if d := reg.Counter(telemetry.KeyServerSnapshotErrors).Value() - errsBefore; d != 1 {
		t.Fatalf("server.snapshot.errors delta = %d, want 1", d)
	}
	if d := reg.Counter(telemetry.KeyFettoyTableSnapshotLoads).Value() - loadsBefore; d != 0 {
		t.Fatalf("mismatched snapshot was loaded: loads delta = %d, want 0", d)
	}
	// Two builds: the clean server's and the snapshot server's rebuild.
	if d := reg.Counter(telemetry.KeyFettoyTableBuilds).Value() - buildsBefore; d != 2 {
		t.Fatalf("table builds delta = %d, want 2 (clean + rebuild)", d)
	}
}

// TestSnapshotV1FormatRebuilds pins the format bump: a CNTTABv1 table,
// written by the adaptive builder, must be refused by its magic even
// when its checksum and identity are valid, counted as a
// server.snapshot.errors, and rebuilt into exactly the grid a fresh
// build makes — answer and re-persisted CNTTABv2 file byte for byte —
// so replicas that load and replicas that build never disagree.
func TestSnapshotV1FormatRebuilds(t *testing.T) {
	reg := telemetry.Default()
	freshDir, v1Dir := t.TempDir(), t.TempDir()

	clean := decodeJob(t, post(t, New(Config{SnapshotDir: freshDir}).Handler(), refBody))
	fresh, err := os.ReadFile(refSnapshotPath(t, freshDir))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(fresh, []byte("CNTTABv2")) {
		t.Fatalf("fresh snapshot starts %q, want CNTTABv2", fresh[:8])
	}
	// Only the version is wrong: same grid, checksum fixed up.
	v1 := append([]byte("CNTTABv1"), fresh[8:len(fresh)-4]...)
	v1 = binary.LittleEndian.AppendUint32(v1, crc32.ChecksumIEEE(v1))
	path := refSnapshotPath(t, v1Dir)
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}

	errsBefore := reg.Counter(telemetry.KeyServerSnapshotErrors).Value()
	buildsBefore := reg.Counter(telemetry.KeyFettoyTableBuilds).Value()
	loadsBefore := reg.Counter(telemetry.KeyFettoyTableSnapshotLoads).Value()
	got := decodeJob(t, post(t, New(Config{SnapshotDir: v1Dir}).Handler(), refBody))
	if got.IDS != clean.IDS { //lint:allow floatcmp a refused snapshot must end in a bit-identical rebuild
		t.Fatalf("v1 snapshot changed the answer: %g, want %g", got.IDS, clean.IDS)
	}
	if d := reg.Counter(telemetry.KeyServerSnapshotErrors).Value() - errsBefore; d != 1 {
		t.Fatalf("server.snapshot.errors delta = %d, want 1", d)
	}
	if d := reg.Counter(telemetry.KeyFettoyTableSnapshotLoads).Value() - loadsBefore; d != 0 {
		t.Fatalf("v1 snapshot was loaded: loads delta = %d, want 0", d)
	}
	if d := reg.Counter(telemetry.KeyFettoyTableBuilds).Value() - buildsBefore; d != 1 {
		t.Fatalf("table builds delta = %d, want 1", d)
	}
	if rebuilt, err := os.ReadFile(path); err != nil || !bytes.Equal(rebuilt, fresh) {
		t.Fatalf("rebuild re-persisted %d bytes differing from the fresh build's %d (err %v)", len(rebuilt), len(fresh), err)
	}
}

// TestSnapshotTruncatedFileRebuilds pins the crash-shaped failure the
// durable save exists to prevent arriving from older processes: a
// half-written .snap must degrade to a counted rebuild, and a
// completed save must leave exactly the snapshot — no temp residue.
func TestSnapshotTruncatedFileRebuilds(t *testing.T) {
	dir := t.TempDir()
	reg := telemetry.Default()

	cold := decodeJob(t, post(t, New(Config{SnapshotDir: dir}).Handler(), refBody))
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || !strings.HasSuffix(entries[0].Name(), ".snap") {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("save left %v, want exactly one .snap and no temp files", names)
	}

	path := refSnapshotPath(t, dir)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	errsBefore := reg.Counter(telemetry.KeyServerSnapshotErrors).Value()
	buildsBefore := reg.Counter(telemetry.KeyFettoyTableBuilds).Value()
	warm := decodeJob(t, post(t, New(Config{SnapshotDir: dir}).Handler(), refBody))
	if warm.IDS != cold.IDS { //lint:allow floatcmp a rebuilt table must answer bit-identically
		t.Fatalf("rebuild after truncated snapshot answered %g, want %g", warm.IDS, cold.IDS)
	}
	if d := reg.Counter(telemetry.KeyServerSnapshotErrors).Value() - errsBefore; d != 1 {
		t.Fatalf("server.snapshot.errors delta = %d, want 1", d)
	}
	if d := reg.Counter(telemetry.KeyFettoyTableBuilds).Value() - buildsBefore; d != 1 {
		t.Fatalf("table builds delta = %d, want 1", d)
	}

	// The rebuild re-persisted a complete snapshot: the next process
	// warm-starts again.
	if fresh, err := os.ReadFile(path); err != nil || len(fresh) != len(raw) {
		t.Fatalf("snapshot not re-persisted after rebuild: len %d, want %d (err %v)", len(fresh), len(raw), err)
	}
}
