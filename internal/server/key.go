// key.go is the single home of request identity: the cache key a
// model description resolves to, the table key naming the charge table
// a reference model shares, the canonical model-key string the cluster
// router (internal/cluster) hashes for key-affinity placement, and the
// coalescing key that decides when two buffered jobs are the same job.
// All of them derive from one resolution with wire defaults applied
// (and -0 folded into 0), so an omitted field and its explicit default
// spelling are the same identity everywhere — the server's cache, the
// flight group and the router's rendezvous ring can never disagree
// about which requests are "the same".
//
// Identity has two levels. A cacheKey (family, preset, T, EF) names a
// model. A tableKey (preset, T, window) names the expensive artefact
// under a reference model, its charge table: the state density N(u)
// never sees EF (USF = EF − q·VSC, paper eqs. 5–6), which only picks
// the u window a model reads, so every EF of one band shares a table.
package server

import (
	"encoding/binary"
	"fmt"
	"math"

	"cntfet/internal/fettoy"
)

// presetOrDefault normalises an empty wire device preset to
// DeviceDefault, mirroring familyOrDefault: the zero value and the
// explicit "default" spelling name the same device.
func presetOrDefault(preset string) string {
	if preset == "" {
		return DeviceDefault
	}
	return preset
}

// cacheKey identifies one built model. The float fields are the
// post-override (resolved) temperature and Fermi level: two requests
// share a model exactly when they resolve to byte-identical
// parameters, which is the right granularity for a cache
// (nearby-but-different T or EF is a different physical model).
type cacheKey struct {
	family, preset string
	t, ef          float64
}

// String renders the key for spans, logs and the router:
// "family/preset/T=…/EF=…" with resolved (post-override, post-default)
// parameter values.
func (k cacheKey) String() string {
	return fmt.Sprintf("%s/%s/T=%g/EF=%g",
		familyOrDefault(k.family), presetOrDefault(k.preset), k.t, k.ef)
}

// specCacheKey is the one constructor of a cacheKey: family and preset
// defaults applied, overrides resolved against the preset device, and
// an EF of -0 folded into 0. The cache, the table key, the coalescing
// key and the route key all go through it, so an explicit
// `"family": "model1"`, `"t": 300` or `"ef": -0` and the plain spelling
// land on the same entry, the same flight and the same replica.
func specCacheKey(spec ModelSpec, dev fettoy.Device) cacheKey {
	ef := dev.EF
	if ef == 0 { //lint:allow floatcmp folds -0 into 0: one model, one identity
		ef = 0
	}
	return cacheKey{
		family: familyOrDefault(spec.Family),
		preset: presetOrDefault(spec.Device),
		t:      dev.T,
		ef:     ef,
	}
}

// tableKey identifies one shared charge table: the preset and
// temperature fix the state density N(u), and [umin, umax] is the
// tabulated u window in eV (tableWindow).
type tableKey struct {
	preset     string
	t          float64
	umin, umax float64
}

// tableKey returns the key of the charge table the model k names
// shares.
func (k cacheKey) tableKey() tableKey {
	umin, umax := tableWindow(k.ef)
	return tableKey{preset: k.preset, t: k.t, umin: umin, umax: umax}
}

// Shared-table EF bands. Band j holds EF in [−0.55 + 0.6j, 0.05 + 0.6j)
// eV and tabulates u in [−1.85 + 0.6j, 1.45 + 0.6j]: the union of its
// EFs' default windows [EF − 1.3, EF + 1.4] (fettoy.DefaultTableRange). Band
// 0 holds the paper's three EFs (−0.5, −0.32 and 0 eV).
const (
	tableBandEF    = -0.55 // lower EF edge of band 0, eV
	tableBandWidth = 0.6   // eV
	tableBandUMin  = -1.85 // band 0's window, eV
	tableBandUMax  = 1.45
)

// tableWindow returns the u window, in eV, of the charge table a model
// at Fermi level ef shares: its EF band's window, which contains the
// model's own default window. Where rounding breaks that containment
// (at a band edge, or at extreme |ef|), it returns the default window
// itself.
func tableWindow(ef float64) (umin, umax float64) {
	j := math.Floor((ef - tableBandEF) / tableBandWidth)
	umin, umax = tableBandUMin+j*tableBandWidth, tableBandUMax+j*tableBandWidth
	if lo, hi := fettoy.DefaultTableRange(ef); !(umin <= lo && hi <= umax) {
		return lo, hi
	}
	return umin, umax
}

// specID is a ModelSpec resolved once per request: the preset device
// with its overrides applied and the cache key it lands on, or why it
// does not resolve. The cache lookup, the coalescing key and the
// logged model key all read it instead of resolving the spec again.
type specID struct {
	spec *ModelSpec // nil: the request names no such model
	dev  fettoy.Device
	key  cacheKey
	err  error
}

// identify resolves spec (which may be nil).
func identify(spec *ModelSpec) specID {
	id := specID{spec: spec}
	if spec != nil {
		if id.dev, id.err = spec.device(); id.err == nil {
			id.key = specCacheKey(*spec, id.dev)
		}
	}
	return id
}

// String renders the identity as ModelSpec.Key does.
func (id specID) String() string {
	if id.err == nil {
		return id.key.String()
	}
	return id.spec.rawKey()
}

// Key renders the cache identity a spec resolves to, for logs, spans
// and the cluster router — with the family and preset defaults applied
// and the T/EF overrides resolved, so an omitted family and an
// explicit "model1" (or an omitted T and an explicit 300) report the
// same identity. Unresolvable specs render with their raw override
// values; they are still deterministic, just never cached.
func (m ModelSpec) Key() string {
	dev, err := m.device()
	if err != nil {
		return m.rawKey()
	}
	return specCacheKey(m, dev).String()
}

// rawKey renders an unresolvable spec's identity from its raw values.
func (m ModelSpec) rawKey() string {
	// Render the EF override's value, not its pointer: the key must be
	// the same string for every decode of the same body.
	ef := "preset"
	if m.EF != nil {
		ef = fmt.Sprintf("%g", *m.EF)
	}
	return fmt.Sprintf("%s/%s/T=%g/EF=%s",
		familyOrDefault(m.Family), presetOrDefault(m.Device), m.T, ef)
}

// RouteKey is the canonical model identity of a decoded job — the
// exact string the server's model cache keys on. The cluster router
// rendezvous-hashes it so every (family, device, T, EF) has one home
// replica; because router and server share this function, the replica
// that receives a key's jobs is the replica whose cache holds that
// key's model. Jobs without a model (invalid — the backend answers
// 400) route by their kind alone, which keeps them deterministic
// without polluting the model keyspace.
func RouteKey(jr JobRequest) string {
	if jr.Model == nil {
		return "invalid/" + jr.Kind
	}
	return jr.Model.Key()
}

// Tags of a model identity inside a coalescing key.
const (
	tagAbsent   byte = iota // no ref model
	tagResolved             // name codes and float bits
	tagText                 // the Key (or RouteKey) text
)

// appendCoalesceKey appends the flight-group key of a buffered job to
// b. Two jobs get the same key exactly when they resolve to the same
// engine run: same kind, same model identities as ModelSpec.Key renders
// them, same grids and scheduling parameters. Stream is absent —
// streamed responses never enter the flight group.
//
// The key is binary rather than text. Known kind, family and preset
// names are one-byte codes (others are spelled out), each number is
// its float64 bits — with -0 folded into 0 wherever the wire omits a
// zero, so both spell the same job — and every variable-length part
// carries its length, so no two distinct jobs share a key. A model
// that resolves under known names is its codes plus the resolved T
// and EF bits; any other identity (an unresolvable spec, an unknown
// family, a missing model) is its Key text. The two forms never name
// the same identity: a resolved spec under known names renders with a
// positive temperature, which no other spec renders with those names.
func appendCoalesceKey(b []byte, jr *JobRequest, model, ref specID) []byte {
	b = appendName(b, jr.Kind)
	if model.spec == nil {
		b = appendText(append(b, tagText), RouteKey(*jr))
	} else {
		b = appendSpec(b, model)
	}
	if ref.spec == nil {
		b = append(b, tagAbsent)
	} else {
		b = appendSpec(b, ref)
	}
	b = binary.AppendUvarint(b, uint64(len(jr.RefFamily)))
	for _, c := range jr.RefFamily {
		b = appendBits(b, c.VG)
		b = appendNullable(b, c.VDS)
		b = appendNullable(b, c.IDS)
	}
	b = appendOmittable(b, jr.VG)
	b = appendOmittable(b, jr.VD)
	b = appendFloats(b, jr.Gates)
	b = appendFloats(b, jr.Drains)
	b = binary.AppendVarint(b, int64(jr.Workers))
	b = appendOmittable(b, jr.EFSigma)
	b = appendOmittable(b, jr.DiameterSigma)
	b = binary.AppendVarint(b, int64(jr.Samples))
	return binary.AppendVarint(b, jr.Seed)
}

// nameCode is the one-byte code of an interned wire name, 0 for any
// other string.
func nameCode(s string) byte {
	for i, n := range interned {
		if s == n {
			return byte(i + 1)
		}
	}
	return 0
}

// appendName appends a kind, family or preset name: its code, or 0 and
// the spelled-out text.
func appendName(b []byte, s string) []byte {
	if c := nameCode(s); c != 0 {
		return append(b, c)
	}
	return appendText(append(b, 0), s)
}

func appendText(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// appendSpec appends a present model identity.
func appendSpec(b []byte, id specID) []byte {
	if id.err == nil {
		if fc, pc := nameCode(id.key.family), nameCode(id.key.preset); fc != 0 && pc != 0 {
			b = append(b, tagResolved, fc, pc)
			return appendBits(appendBits(b, id.key.t), id.key.ef)
		}
	}
	return appendText(append(b, tagText), id.String())
}

func appendBits(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// appendOmittable appends a number the wire omits when zero: -0 and 0
// are the same (omitted) value.
func appendOmittable(b []byte, f float64) []byte {
	if f == 0 { //lint:allow floatcmp omitempty drops -0 and 0 alike
		f = 0
	}
	return appendBits(b, f)
}

// appendFloats appends an omitempty grid: nil and empty are the same.
func appendFloats(b []byte, xs []float64) []byte {
	b = binary.AppendUvarint(b, uint64(len(xs)))
	for _, x := range xs {
		b = appendBits(b, x)
	}
	return b
}

// appendNullable appends a curve's grid, where nil (null) and empty
// ([]) differ.
func appendNullable(b []byte, xs []float64) []byte {
	if xs == nil {
		return append(b, 0)
	}
	return appendFloats(append(b, 1), xs)
}
