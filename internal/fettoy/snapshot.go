package fettoy

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
)

// Charge-table snapshots: a versioned binary serialization of one
// built adaptive grid, so a replica can warm-start from disk instead
// of re-tabulating the state-density integral on cold start (the
// internal/core/serialize.go JSON export of fitted models is the
// precedent; this format is binary because the payload is three
// float64 arrays, not a handful of coefficients).
//
// Layout, all little-endian:
//
//	offset  size  field
//	0       8     magic "CNTTABv2"
//	8       ...   snapshotHeader (fixed-size struct, binary.Write)
//	...     8*n   u nodes (float64 × Nodes)
//	...     8*n   N values
//	...     8*n   N' values
//	...     4     CRC-32 (IEEE) of everything above
//
// The header pins the full identity of the table — every Device
// parameter and every TableOption — and ReadSnapshot refuses a
// snapshot whose identity differs from the receiving table's, so a
// stale file can degrade a replica to a rebuild but never to wrong
// physics. The version lives in the magic: an incompatible layout or
// a different grid builder gets a new magic, and old readers reject it
// outright. Version 2 has version 1's layout; its grids come from the
// breadth-first builder on the shared θ-rule (DESIGN §7). Version 1
// grids were refined against the adaptive N, whose band-edge error they
// carry, so they are refused by their magic and rebuilt rather than
// served: replicas that rebuild and replicas that load then hold the
// same grid bit for bit.

// snapshotMagic identifies format version 2.
const snapshotMagic = "CNTTABv2"

// snapshotHeader is the fixed-size identity-and-shape block. All
// fields are exported for encoding/binary; the struct itself stays
// private to the package.
type snapshotHeader struct {
	// Device identity.
	Diameter     float64
	Tox          float64
	Kappa        float64
	Geometry     int32
	EF           float64
	T            float64
	AlphaG       float64
	AlphaD       float64
	Subbands     int32
	Transmission float64
	// Table options (post-defaulting, as the table runs with them).
	UMin          float64
	UMax          float64
	RelTol        float64
	InitIntervals int32
	MaxNodes      int32
	// Grid shape.
	Scale float64
	Nodes uint32
}

func headerOf(dev Device, opt TableOptions) snapshotHeader {
	return snapshotHeader{
		Diameter:     dev.Diameter,
		Tox:          dev.Tox,
		Kappa:        dev.Kappa,
		Geometry:     int32(dev.Geometry),
		EF:           dev.EF,
		T:            dev.T,
		AlphaG:       dev.AlphaG,
		AlphaD:       dev.AlphaD,
		Subbands:     int32(dev.Subbands),
		Transmission: dev.Transmission,

		UMin:          opt.UMin,
		UMax:          opt.UMax,
		RelTol:        opt.RelTol,
		InitIntervals: int32(opt.InitIntervals),
		MaxNodes:      int32(opt.MaxNodes),
	}
}

// identity is the comparable (device, options) part of a header —
// Scale and Nodes describe the payload, not the key.
func (h snapshotHeader) identity() snapshotHeader {
	h.Scale, h.Nodes = 0, 0
	return h
}

// SnapshotInfo summarises a snapshot file without needing a matching
// table: the device and options it was built for and the grid size.
// cntexport prints it; the server logs it on warm start.
type SnapshotInfo struct {
	Device  Device
	Options TableOptions
	Nodes   int
	Scale   float64
}

func (h snapshotHeader) info() SnapshotInfo {
	return SnapshotInfo{
		Device: Device{
			Diameter:     h.Diameter,
			Tox:          h.Tox,
			Kappa:        h.Kappa,
			Geometry:     GateGeometry(h.Geometry),
			EF:           h.EF,
			T:            h.T,
			AlphaG:       h.AlphaG,
			AlphaD:       h.AlphaD,
			Subbands:     int(h.Subbands),
			Transmission: h.Transmission,
		},
		Options: TableOptions{
			UMin:          h.UMin,
			UMax:          h.UMax,
			RelTol:        h.RelTol,
			InitIntervals: int(h.InitIntervals),
			MaxNodes:      int(h.MaxNodes),
		},
		Nodes: int(h.Nodes),
		Scale: h.Scale,
	}
}

// WriteSnapshot serializes the built grid to w. The table must have
// been built (or loaded) first: snapshotting is an explicit export
// step, and implicitly paying a multi-millisecond tabulation inside a
// serializer would hide the cost the snapshot exists to avoid.
func (t *ChargeTable) WriteSnapshot(w io.Writer) error {
	d := t.data.Load()
	if d == nil {
		return fmt.Errorf("fettoy: snapshot: table not built")
	}
	crc := crc32.NewIEEE()
	tw := io.MultiWriter(w, crc)
	if _, err := io.WriteString(tw, snapshotMagic); err != nil {
		return fmt.Errorf("fettoy: snapshot: %w", err)
	}
	h := headerOf(t.m.dev, t.opt)
	h.Scale = d.scale
	h.Nodes = uint32(len(d.u))
	for _, v := range []any{h, d.u, d.n, d.np} {
		if err := binary.Write(tw, binary.LittleEndian, v); err != nil {
			return fmt.Errorf("fettoy: snapshot: %w", err)
		}
	}
	if err := binary.Write(w, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("fettoy: snapshot: %w", err)
	}
	metrics.snapshotSaves.Inc()
	return nil
}

// readSnapshot parses and checksums one snapshot stream.
func readSnapshot(r io.Reader) (snapshotHeader, *tableData, error) {
	var h snapshotHeader
	crc := crc32.NewIEEE()
	tr := io.TeeReader(r, crc)
	magic := make([]byte, len(snapshotMagic))
	if _, err := io.ReadFull(tr, magic); err != nil {
		return h, nil, fmt.Errorf("fettoy: snapshot: %w", err)
	}
	if string(magic) != snapshotMagic {
		return h, nil, fmt.Errorf("fettoy: snapshot: bad magic %q (want %q)", magic, snapshotMagic)
	}
	if err := binary.Read(tr, binary.LittleEndian, &h); err != nil {
		return h, nil, fmt.Errorf("fettoy: snapshot: header: %w", err)
	}
	// An absurd node count means a truncated or corrupt header; fail
	// before allocating gigabytes on its say-so.
	if h.Nodes == 0 || h.Nodes > 1<<24 {
		return h, nil, fmt.Errorf("fettoy: snapshot: implausible node count %d", h.Nodes)
	}
	d := &tableData{
		u:     make([]float64, h.Nodes),
		n:     make([]float64, h.Nodes),
		np:    make([]float64, h.Nodes),
		scale: h.Scale,
	}
	for _, arr := range [][]float64{d.u, d.n, d.np} {
		if err := binary.Read(tr, binary.LittleEndian, arr); err != nil {
			return h, nil, fmt.Errorf("fettoy: snapshot: grid: %w", err)
		}
	}
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return h, nil, fmt.Errorf("fettoy: snapshot: checksum: %w", err)
	}
	if got != want {
		return h, nil, fmt.Errorf("fettoy: snapshot: checksum mismatch (file %08x, computed %08x)", got, want)
	}
	for i := 0; i < int(h.Nodes); i++ {
		if i > 0 && !(d.u[i] > d.u[i-1]) {
			return h, nil, fmt.Errorf("fettoy: snapshot: u grid not increasing at node %d", i)
		}
		if math.IsNaN(d.n[i]) || math.IsNaN(d.np[i]) {
			return h, nil, fmt.Errorf("fettoy: snapshot: NaN at node %d", i)
		}
	}
	return h, d, nil
}

// ReadSnapshotInfo parses a snapshot's header (and verifies the whole
// stream's checksum) without publishing it anywhere.
func ReadSnapshotInfo(r io.Reader) (SnapshotInfo, error) {
	h, _, err := readSnapshot(r)
	if err != nil {
		return SnapshotInfo{}, err
	}
	return h.info(), nil
}

// ReadSnapshot publishes a deserialized grid into the table, skipping
// the adaptive build entirely — fettoy.table.builds does not move, so
// a warm-started replica is observably distinct from one that
// re-tabulated (fettoy.table.snapshot_loads moves instead). The
// snapshot must carry exactly this table's device parameters and
// options; any mismatch is an error and leaves the table unchanged,
// ready for an ordinary build.
func (t *ChargeTable) ReadSnapshot(r io.Reader) error {
	h, d, err := readSnapshot(r)
	if err != nil {
		return err
	}
	want := headerOf(t.m.dev, t.opt)
	if h.identity() != want.identity() { //lint:allow floatcmp snapshot identity must match the table bit-exactly; close-but-different parameters are different physics
		return fmt.Errorf("fettoy: snapshot: identity mismatch: file %+v vs table %+v", h.identity(), want.identity())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.data.Load() != nil {
		return fmt.Errorf("fettoy: snapshot: table already built")
	}
	t.data.Store(d)
	metrics.snapshotLoads.Inc()
	return nil
}
