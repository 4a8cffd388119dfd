package cluster

import (
	"encoding/json"
	"testing"

	"cntfet/internal/server"
)

// FuzzRouteKey pins the router's partial decode to the full one: for
// every body, the key from the {kind, model} decode must equal
// server.RouteKey of the whole decoded JobRequest, and neither may
// panic.
func FuzzRouteKey(f *testing.F) {
	for _, body := range []string{
		`{"kind": "iv-point", "model": {"family": "reference"}, "vg": 0.5, "vd": 0.4}`,
		`{"kind": "family-sweep", "model": {"family": "model2", "device": "javey", "t": 150, "ef": -0.5}, "gates": [0.3, 0.6], "drains": [0, 0.6], "stream": true}`,
		`{"kind": "rms-compare", "model": {}, "ref": {"family": "reference"}, "ref_family": [{"vg": 0.5, "vds": [0], "ids": [0]}]}`,
		// Malformed bodies.
		``, `null`, `[]`, `"model"`, `{`, `{"kind": "iv-point", "model": {"family": "model1"}`,
		`{"kind": "iv-point", "model": {"family": "model1"}} trailing`, `{"model": {"t": 1e999}}`,
		// Type errors, in the key's fields and around them.
		`{"kind": 7, "model": {"family": "model1"}}`, `{"kind": "iv-point", "model": "model1"}`,
		`{"kind": "iv-point", "model": {"family": 3, "t": "hot"}}`, `{"kind": "iv-point", "vg": "x", "model": {"ef": -0.32}}`,
		`{"gates": {"a": 1}, "model": {"family": "reference"}, "workers": 1.5}`, `{"model": null, "kind": null}`,
		// An unresolvable spec (unknown preset) with an EF override.
		`{"model": {"device": "0", "ef": 0}}`,
		// Duplicate keys: the last one wins in both decodes.
		`{"model": {"family": "model1"}, "model": {"t": 450}}`, `{"model": {"family": "model1"}, "model": null}`,
		`{"kind": "iv-point", "kind": "monte-carlo", "model": {"family": "model2"}, "model": 5}`,
		// Case-folded names, including the Kelvin sign that folds to k.
		`{"KIND": "iv-point", "Model": {"FAMILY": "reference", "T": 300}}`, "{\"\u212Aind\": \"iv-point\", \"MODEL\": {}}",
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var full server.JobRequest
		_ = json.Unmarshal(body, &full)
		if got, want := routeKey(body), server.RouteKey(full); got != want {
			t.Fatalf("body %q: partial decode routes to %q, full decode to %q", body, got, want)
		}
	})
}
