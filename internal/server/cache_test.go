package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"

	"cntfet/internal/device"
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

// TestModelCacheEvicts is the regression test for the cache that never
// evicted: 10k cold keys keep at most maxCachedModels models built,
// each key past the cap counts one server.cache.evictions, and an
// evicted key rebuilds a bit-identical model.
func TestModelCacheEvicts(t *testing.T) {
	const keys = 10000
	biases := []fettoy.Bias{{VG: 0.5, VD: 0.4}, {VG: 0.3, VD: 0.05}, {VG: 0.6, VD: 0.6}}
	spec := func(i int) ModelSpec { return ModelSpec{Family: FamilyModel2, T: 150 + 0.03*float64(i)} }
	currents := func(m device.Solver) []uint64 {
		t.Helper()
		bits := make([]uint64, len(biases))
		for j, b := range biases {
			ids, err := m.IDS(b)
			if err != nil {
				t.Fatal(err)
			}
			bits[j] = math.Float64bits(ids)
		}
		return bits
	}

	c := NewModelCache()
	reg := telemetry.Default()
	mark := reg.CounterMark(nil)
	ctx := context.Background()
	first := make([][]uint64, keys)
	for i := range keys {
		m, _, err := c.Resolve(ctx, spec(i))
		if err != nil {
			t.Fatal(err)
		}
		first[i] = currents(m)
		if n := c.Len(); n > maxCachedModels {
			t.Fatalf("after %d keys the cache holds %d models, cap %d", i+1, n, maxCachedModels)
		}
	}
	if got, want := reg.CounterDelta(mark)[telemetry.KeyServerCacheEvictions], int64(keys-maxCachedModels); got != want {
		t.Fatalf("server.cache.evictions moved by %d, want %d", got, want)
	}

	rebuilt := 0
	for i := 0; i < keys && rebuilt < 20; i++ {
		s := spec(i)
		dev, err := s.device()
		if err != nil {
			t.Fatal(err)
		}
		c.mu.Lock()
		_, held := c.entries[specCacheKey(s, dev)]
		c.mu.Unlock()
		if held {
			continue
		}
		m, cached, err := c.Resolve(ctx, s)
		if err != nil || cached {
			t.Fatalf("evicted key %d: cached=%v err=%v, want a rebuild", i, cached, err)
		}
		if got := currents(m); !slices.Equal(got, first[i]) {
			t.Fatalf("evicted key %d rebuilt to different currents: %x, first build %x", i, got, first[i])
		}
		rebuilt++
	}
	if rebuilt == 0 {
		t.Fatal("no key was evicted")
	}
}

// TestModelCacheEvictsConcurrently resolves overlapping cold keys from
// several goroutines past the cap: evictions race with builds and with
// hits on the same keys, every resolve must still succeed, and the
// cache may exceed its cap only by the builds in flight.
func TestModelCacheEvictsConcurrently(t *testing.T) {
	const workers, keys = 4, maxCachedModels + 300
	c := NewModelCache()
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				k := (i*(w+1) + w*97) % keys
				if _, _, err := c.Resolve(context.Background(), ModelSpec{T: 150 + 0.1*float64(k)}); err != nil {
					t.Error(err)
					return
				}
				if n := c.Len(); n > maxCachedModels+workers {
					t.Errorf("cache holds %d models, cap %d with %d builders", n, maxCachedModels, workers)
					return
				}
			}
		}()
	}
	wg.Wait()
}
