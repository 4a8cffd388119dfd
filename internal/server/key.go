// key.go is the single home of request identity: the cache key a
// model description resolves to, the canonical model-key string the
// cluster router (internal/cluster) hashes for key-affinity placement,
// and the coalescing key that decides when two buffered jobs are the
// same job. All three render through one path with wire defaults
// applied, so an omitted field and its explicit default spelling are
// byte-for-byte the same identity everywhere — the server's cache, the
// flight group and the router's rendezvous ring can never disagree
// about which requests are "the same".
package server

import (
	"fmt"

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
// defaults applied, overrides resolved against the preset device. Both
// the cache and the coalescing key go through it, so an explicit
// `"family": "model1"` or `"t": 300` and the omitted spelling land on
// the same entry.
func specCacheKey(spec ModelSpec, dev fettoy.Device) cacheKey {
	return cacheKey{
		family: familyOrDefault(spec.Family),
		preset: presetOrDefault(spec.Device),
		t:      dev.T,
		ef:     dev.EF,
	}
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
		return fmt.Sprintf("%s/%s/T=%g/EF=%v",
			familyOrDefault(m.Family), presetOrDefault(m.Device), m.T, m.EF)
	}
	return specCacheKey(m, dev).String()
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

// canonicalJob is the coalescing identity of a buffered job: the
// JobRequest with both model descriptions replaced by their resolved
// Key() strings and the strategy default applied. Marshalling this —
// rather than the decoded JobRequest itself — makes semantically
// identical spellings (explicit family vs omitted, explicit preset T
// vs zero, "auto" vs "") coalesce. Stream is deliberately absent:
// streamed responses never enter the flight group. The key is the
// json.Marshal spelling of this struct, built by appendJSON without
// reflection.
type canonicalJob struct {
	Kind      string    `json:"kind"`
	Model     string    `json:"model"`
	Ref       string    `json:"ref,omitempty"`
	RefFamily []Curve   `json:"ref_family,omitempty"`
	VG        float64   `json:"vg,omitempty"`
	VD        float64   `json:"vd,omitempty"`
	Gates     []float64 `json:"gates,omitempty"`
	Drains    []float64 `json:"drains,omitempty"`
	Strategy  string    `json:"strategy"`
	Workers   int       `json:"workers,omitempty"`
	Repeat    int       `json:"repeat,omitempty"`
	EFSigma   float64   `json:"ef_sigma,omitempty"`
	DiamSigma float64   `json:"diameter_sigma,omitempty"`
	Samples   int       `json:"samples,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
}

// coalesceKey canonicalises a decoded request into its flight-group
// key. Two requests get the same key exactly when they resolve to the
// same engine run: same kind, same resolved model identities, same
// grids and scheduling parameters.
func coalesceKey(jr JobRequest) (string, error) {
	cj := canonicalize(jr)
	buf := getEncodeBuf()
	defer putEncodeBuf(buf)
	var err error
	if *buf, err = cj.appendJSON((*buf)[:0]); err != nil {
		return "", fmt.Errorf("server: coalesce key: %w", err)
	}
	return string(*buf), nil
}

// canonicalize applies the wire defaults and resolves both model
// descriptions to their Key() identities.
func canonicalize(jr JobRequest) canonicalJob {
	cj := canonicalJob{
		Kind:      jr.Kind,
		Model:     RouteKey(jr),
		RefFamily: jr.RefFamily,
		VG:        jr.VG,
		VD:        jr.VD,
		Gates:     jr.Gates,
		Drains:    jr.Drains,
		Strategy:  jr.Strategy,
		Workers:   jr.Workers,
		Repeat:    jr.Repeat,
		EFSigma:   jr.EFSigma,
		DiamSigma: jr.DiameterSigma,
		Samples:   jr.Samples,
		Seed:      jr.Seed,
	}
	if jr.Ref != nil {
		cj.Ref = jr.Ref.Key()
	}
	if cj.Strategy == "" {
		cj.Strategy = "auto"
	}
	return cj
}

// appendJSON appends cj exactly as json.Marshal spells it: field
// order, omitempty and float spelling included.
func (cj *canonicalJob) appendJSON(dst []byte) ([]byte, error) {
	j := jsonBuf{b: dst}
	j.raw(`{"kind":`)
	j.str(cj.Kind)
	j.raw(`,"model":`)
	j.str(cj.Model)
	if cj.Ref != "" {
		j.raw(`,"ref":`)
		j.str(cj.Ref)
	}
	if len(cj.RefFamily) > 0 {
		j.raw(`,"ref_family":`)
		j.curves(cj.RefFamily)
	}
	j.omitFloat(`,"vg":`, cj.VG)
	j.omitFloat(`,"vd":`, cj.VD)
	if len(cj.Gates) > 0 {
		j.raw(`,"gates":`)
		j.floats(cj.Gates)
	}
	if len(cj.Drains) > 0 {
		j.raw(`,"drains":`)
		j.floats(cj.Drains)
	}
	j.raw(`,"strategy":`)
	j.str(cj.Strategy)
	j.omitInt(`,"workers":`, int64(cj.Workers))
	j.omitInt(`,"repeat":`, int64(cj.Repeat))
	j.omitFloat(`,"ef_sigma":`, cj.EFSigma)
	j.omitFloat(`,"diameter_sigma":`, cj.DiamSigma)
	j.omitInt(`,"samples":`, int64(cj.Samples))
	j.omitInt(`,"seed":`, cj.Seed)
	j.b = append(j.b, '}')
	return j.b, j.err
}
