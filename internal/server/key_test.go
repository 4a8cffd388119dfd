package server

import (
	"encoding/json"
	"math"
	"testing"

	"cntfet/internal/fettoy"
)

// jobKey is the coalescing key of a decoded request, as the handler
// computes it.
func jobKey(jr JobRequest) string {
	return string(appendCoalesceKey(nil, &jr, identify(jr.Model), identify(jr.Ref)))
}

// TestRouteKeyGolden pins server.RouteKey's text for representative
// specs. The cluster router rendezvous-hashes this string, so a changed
// spelling silently moves every key to a different home replica.
func TestRouteKeyGolden(t *testing.T) {
	f := func(x float64) *float64 { return &x }
	for _, tc := range []struct {
		jr   JobRequest
		want string
	}{
		{JobRequest{Kind: "iv-point"}, "invalid/iv-point"},
		{JobRequest{Kind: "family-sweep", Model: &ModelSpec{}}, "model1/default/T=300/EF=-0.32"},
		{JobRequest{Model: &ModelSpec{Family: FamilyModel1, Device: DeviceDefault, T: 300, EF: f(-0.32)}}, "model1/default/T=300/EF=-0.32"},
		{JobRequest{Model: &ModelSpec{Family: FamilyReference, Device: DeviceJavey}}, "reference/javey/T=300/EF=-0.05"},
		{JobRequest{Model: &ModelSpec{Family: FamilyModel2, T: 150, EF: f(-0.5)}}, "model2/default/T=150/EF=-0.5"},
		{JobRequest{Model: &ModelSpec{Family: FamilyModel1, T: 450, EF: f(0)}}, "model1/default/T=450/EF=0"},
		{JobRequest{Model: &ModelSpec{EF: f(math.Copysign(0, -1))}}, "model1/default/T=300/EF=0"},
		{JobRequest{Model: &ModelSpec{T: 1e-7, EF: f(-1e-21)}}, "model1/default/T=1e-07/EF=-1e-21"},
		{JobRequest{Model: &ModelSpec{Family: FamilyModel2, T: 187.33333333333334, EF: f(-0.123456789012345)}}, "model2/default/T=187.33333333333334/EF=-0.123456789012345"},
		{JobRequest{Model: &ModelSpec{Device: "exotic"}}, "model1/exotic/T=0/EF=preset"},
		{JobRequest{Model: &ModelSpec{Family: FamilyModel2, T: -4, EF: f(0.1)}}, "model2/default/T=-4/EF=0.1"},
		{JobRequest{Model: &ModelSpec{Family: "model9", Device: DeviceJavey, T: 77}}, "model9/javey/T=77/EF=-0.05"},
	} {
		if got := RouteKey(tc.jr); got != tc.want {
			t.Errorf("RouteKey(%+v) = %q, want %q", tc.jr.Model, got, tc.want)
		}
	}
}

// TestNegativeZeroEFIsOneIdentity is the regression test for "ef": -0:
// Go map keys already put it on the same model as "ef": 0, but the
// coalescing key wrote the raw EF bits and the route key rendered
// EF=-0, so the two bodies never coalesced and could land on different
// replicas. All four keys now agree.
func TestNegativeZeroEFIsOneIdentity(t *testing.T) {
	for _, family := range []string{FamilyReference, FamilyModel1} {
		var pos, neg JobRequest
		for body, jr := range map[string]*JobRequest{`0`: &pos, `-0`: &neg} {
			raw := `{"kind": "iv-point", "model": {"family": "` + family + `", "ef": ` + body + `}, "vg": 0.5, "vd": 0.4}`
			if !decodeJobRequest([]byte(raw), jr) {
				t.Fatalf("body %s rejected", raw)
			}
		}
		if !math.Signbit(*neg.Model.EF) {
			t.Fatal("the -0 body decoded to +0: the test no longer exercises the fold")
		}
		p, n := identify(pos.Model), identify(neg.Model)
		if p.key != n.key {
			t.Errorf("%s: cache keys %+v and %+v differ", family, p.key, n.key)
		}
		if p.key.tableKey() != n.key.tableKey() {
			t.Errorf("%s: table keys %+v and %+v differ", family, p.key.tableKey(), n.key.tableKey())
		}
		if jobKey(pos) != jobKey(neg) {
			t.Errorf("%s: coalescing keys differ", family)
		}
		if rp, rn := RouteKey(pos), RouteKey(neg); rp != rn {
			t.Errorf("%s: route keys %q and %q differ", family, rp, rn)
		}
	}
}

// TestTableWindow: the paper's three EFs share band 0's window exactly,
// and every finite EF's window contains that EF's default table range —
// at band edges, one ulp either side of them, and at extreme |EF|.
func TestTableWindow(t *testing.T) {
	for _, ef := range paperEFs {
		if lo, hi := tableWindow(ef); lo != tableBandUMin || hi != tableBandUMax { //lint:allow floatcmp band 0's window is its exact constants
			t.Errorf("tableWindow(%g) = [%g, %g], want band 0's [%g, %g]", ef, lo, hi, tableBandUMin, tableBandUMax)
		}
	}
	efs := []float64{0, math.Copysign(0, -1), 5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 1e300, -1e300, 1e16, -1e16}
	for j := -20.0; j <= 20; j++ {
		edge := tableBandEF + j*tableBandWidth
		efs = append(efs, edge, math.Nextafter(edge, math.Inf(1)), math.Nextafter(edge, math.Inf(-1)), edge+0.3)
	}
	for _, ef := range efs {
		lo, hi := tableWindow(ef)
		if dlo, dhi := fettoy.DefaultTableRange(ef); !(lo <= dlo && dhi <= hi) {
			t.Errorf("tableWindow(%g) = [%g, %g] misses the default range [%g, %g]", ef, lo, hi, dlo, dhi)
		}
	}
}

// canonicalJob is the coalescing identity the key used to spell out
// as JSON: the request with both model descriptions replaced by their
// Key() identities and Stream dropped. Marshalled, it is the oracle
// FuzzCoalesceKey holds the binary key to.
type canonicalJob struct {
	Kind      string    `json:"kind"`
	Model     string    `json:"model"`
	Ref       string    `json:"ref,omitempty"`
	RefFamily []Curve   `json:"ref_family,omitempty"`
	VG        float64   `json:"vg,omitempty"`
	VD        float64   `json:"vd,omitempty"`
	Gates     []float64 `json:"gates,omitempty"`
	Drains    []float64 `json:"drains,omitempty"`
	Workers   int       `json:"workers,omitempty"`
	EFSigma   float64   `json:"ef_sigma,omitempty"`
	DiamSigma float64   `json:"diameter_sigma,omitempty"`
	Samples   int       `json:"samples,omitempty"`
	Seed      int64     `json:"seed,omitempty"`
}

func canonicalize(jr JobRequest) canonicalJob {
	cj := canonicalJob{
		Kind:      jr.Kind,
		Model:     RouteKey(jr),
		RefFamily: jr.RefFamily,
		VG:        jr.VG,
		VD:        jr.VD,
		Gates:     jr.Gates,
		Drains:    jr.Drains,
		Workers:   jr.Workers,
		EFSigma:   jr.EFSigma,
		DiamSigma: jr.DiameterSigma,
		Samples:   jr.Samples,
		Seed:      jr.Seed,
	}
	if jr.Ref != nil {
		cj.Ref = jr.Ref.Key()
	}
	return cj
}

// FuzzCoalesceKey holds the binary coalescing key to the canonical
// JSON it replaced: for any two bodies, the keys are equal exactly when
// the canonical JSON spellings are. And the key survives a round trip:
// decode, key, json.Marshal, decode again — the same key.
func FuzzCoalesceKey(f *testing.F) {
	for _, pair := range [][2]string{
		{`{"kind": "family-sweep", "model": {}, "gates": [0.5], "drains": [0.1]}`,
			`{"kind": "family-sweep", "model": {"family": "model1", "device": "default", "t": 300, "ef": -0.32}, "gates": [0.5], "drains": [0.1]}`},
		{`{"kind": "iv-point", "model": {"t": 300}, "vg": 0, "vd": 0.4}`, `{"kind": "iv-point", "model": {}, "vg": -0, "vd": 0.4}`},
		{`{"kind": "iv-point", "model": {"ef": 0}}`, `{"kind": "iv-point", "model": {"ef": -0}}`},
		{`{"gates": [0], "drains": [], "model": {}}`, `{"gates": [-0], "model": {}}`},
		{`{"kind": "rms-compare", "model": {}, "ref_family": [{"vg": 0, "vds": [], "ids": null}]}`,
			`{"kind": "rms-compare", "model": {}, "ref_family": [{"vg": -0, "vds": null, "ids": []}]}`},
		{`{"kind": "rms-compare", "model": {"family": "model2"}, "ref": {}}`, `{"kind": "rms-compare", "model": {"family": "model2"}, "ref": {"family": "model1", "t": 300}}`},
		{`{"kind": "x", "model": {"family": "a/b", "device": "c"}}`, `{"kind": "x", "model": {"family": "a", "device": "b/c"}}`},
		{`{"kind": "a/T=1/EF=2"}`, `{"kind": "a/T=1/EF=2", "model": {"family": "invalid", "device": "a", "t": 1, "ef": 2}}`},
		{`{"kind": "monte-carlo", "model": {"family": "model9", "t": -4}, "samples": 10, "seed": -1}`,
			`{"kind": "monte-carlo", "model": {"family": "model9", "t": -4, "ef": -0.32}, "samples": 10, "seed": -1, "stream": true}`},
		{`{"kind": "iv-point", "model": {"device": "javey"}, "workers": 1, "ef_sigma": 0.1, "diameter_sigma": -0}`,
			`{"kind": "iv-point", "model": {"device": "javey", "t": 300, "ef": -0.05}, "workers": 1, "ef_sigma": 0.1}`},
		{`{"kind": "rms-compare", "model": {"family": "reference", "ef": -0}, "ref": {"ef": -0}}`,
			`{"kind": "rms-compare", "model": {"family": "reference", "ef": 0}, "ref": {"ef": 0}}`},
	} {
		f.Add([]byte(pair[0]), []byte(pair[1]))
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		var ja, jb JobRequest
		if !decodeJobRequest(a, &ja) || !decodeJobRequest(b, &jb) {
			return
		}
		oracle := func(jr JobRequest) string {
			raw, err := json.Marshal(canonicalize(jr))
			if err != nil {
				t.Fatalf("canonical JSON of %+v: %v", jr, err)
			}
			return string(raw)
		}
		ka, kb := jobKey(ja), jobKey(jb)
		if oa, ob := oracle(ja), oracle(jb); (ka == kb) != (oa == ob) {
			t.Fatalf("bodies %q and %q: binary keys equal=%v, canonical JSON equal=%v:\n%s\n%s", a, b, ka == kb, oa == ob, oa, ob)
		}
		for _, jr := range []JobRequest{ja, jb} {
			raw, err := json.Marshal(jr)
			if err != nil {
				t.Fatal(err)
			}
			var again JobRequest
			if !decodeJobRequest(raw, &again) {
				t.Fatalf("re-encoded request %s does not decode", raw)
			}
			if jobKey(again) != jobKey(jr) {
				t.Fatalf("key of %s changed across json.Marshal and decode", raw)
			}
		}
	})
}

// BenchmarkCoalesceKey times the buffered Table-I sweep's flight key:
// the canonical JSON the key used to be, and the binary key.
func BenchmarkCoalesceKey(b *testing.B) {
	var jr JobRequest
	if !decodeJobRequest([]byte(tableIBody), &jr) {
		b.Fatal("Table-I body rejected")
	}
	b.Run("json-marshal", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := json.Marshal(canonicalize(jr)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("binary", func(b *testing.B) {
		model, ref := identify(jr.Model), identify(jr.Ref)
		var buf []byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendCoalesceKey(buf[:0], &jr, model, ref)
		}
	})
}
