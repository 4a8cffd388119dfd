package main

// workload.go defines the four traffic mixes, the request bodies each
// sends and the oracle every sampled answer is checked against. A body
// is a pure function of (seed, request index), so the same seed gives
// the same inputs whatever order the clients consume them in; the
// service under test only ever sees the bodies.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"sync"

	"cntfet/internal/device"
	"cntfet/internal/engine"
	"cntfet/internal/fettoy"
	"cntfet/internal/server"
	"cntfet/internal/sweep"
)

// workload is one traffic mix against one topology.
type workload struct {
	name     string
	why      string
	topology string
	// fleet selects the cluster router over two replicas instead of a
	// single replica.
	fleet bool
	// stream marks NDJSON-streamed responses.
	stream bool
	// keys is the number of warm keys the traffic draws from; 0 means
	// every request names a never-seen key.
	keys int
	// replayN is how many generated bodies the traced replay runs.
	replayN int
	// body returns request i's body and the index of the warm key it
	// names, or -1 when it names a never-seen key.
	body func(seed, i uint64) ([]byte, int)
	// warm returns the set-up requests: one per warm key, or the fresh
	// keys a cold workload verifies during set-up.
	warm func(seed uint64) [][]byte
}

// The paper's nine (T, EF) cells of tables II-IV.
var (
	cellT  = []float64{150, 300, 450}
	cellEF = []float64{-0.5, -0.32, 0}
)

// cell returns the model spec of cell k (0..8) in the given family.
func cell(family string, k int) *server.ModelSpec {
	ef := cellEF[k%3]
	return &server.ModelSpec{Family: family, T: cellT[k/3], EF: &ef}
}

// mustJSON encodes a request the benchmark built itself; failure is a
// bug in the benchmark.
func mustJSON(jr server.JobRequest) []byte {
	b, err := json.Marshal(jr)
	if err != nil {
		panic(fmt.Sprintf("encoding generated request: %v", err))
	}
	return b
}

// requestRNG returns the deterministic random stream of request i.
func requestRNG(seed, i uint64) *rand.PCG { return rand.NewPCG(seed, i) }

// uniform draws a uniform float64 in [0, 1).
func uniform(p *rand.PCG) float64 { return float64(p.Uint64()>>11) / (1 << 53) }

// sweepBodies are the Table-I family sweeps of the nine cells in the
// default family (model1): 7 gates 0.3-0.6 V x 61 VDS 0-0.6 V.
func sweepBodies(streamed bool) [][]byte {
	out := make([][]byte, 9)
	for k := range out {
		out[k] = mustJSON(server.JobRequest{
			Kind:   engine.FamilySweep.String(),
			Model:  cell("", k),
			Gates:  sweep.PaperGates(),
			Drains: sweep.Grid(),
			Stream: streamed,
		})
	}
	return out
}

func sweepWorkload(name, why, topology string, fleet, streamed bool) *workload {
	bodies := sweepBodies(streamed)
	return &workload{
		name: name, why: why, topology: topology,
		fleet: fleet, stream: streamed, keys: len(bodies), replayN: 2000,
		body: func(seed, i uint64) ([]byte, int) {
			k := int(requestRNG(seed, i).Uint64() % uint64(len(bodies)))
			return bodies[k], k
		},
		warm: func(uint64) [][]byte { return bodies },
	}
}

// ivFamilies are the three model families iv-point draws keys from.
var ivFamilies = []string{server.FamilyModel1, server.FamilyModel2, server.FamilyReference}

func ivBody(key int, vg, vd float64) []byte {
	return mustJSON(server.JobRequest{
		Kind:  engine.IVPoint.String(),
		Model: cell(ivFamilies[key/9], key%9),
		VG:    vg,
		VD:    vd,
	})
}

// coldBody is a never-seen model: T uniform in 150-450 K, EF uniform
// in -0.5-0 eV, alternating model1/model2, at VG=0.5, VD=0.4.
func coldBody(seed, i uint64) []byte {
	p := requestRNG(seed, i)
	t := 150 + 300*uniform(p)
	ef := -0.5 * uniform(p)
	return mustJSON(server.JobRequest{
		Kind:  engine.IVPoint.String(),
		Model: &server.ModelSpec{Family: ivFamilies[i%2], T: t, EF: &ef},
		VG:    0.5,
		VD:    0.4,
	})
}

// coldSetupSeed separates the cold workload's set-up keys from its
// load keys, so the load never repeats a key set-up already built.
const coldSetupSeed = 0x5e7c0d

// workloads are the benchmark's traffic mixes, in reporting order.
var workloads = []*workload{
	sweepWorkload("sweep-buffered",
		"Table I served: kernel, scheduler and buffered encoder do the work on an always-hot cache",
		"1 replica", false, false),
	sweepWorkload("sweep-stream-fleet",
		"adds the router hop, key-affinity routing and per-frame flush that sweep-buffered never exercises",
		"cluster router + 2 replicas", true, true),
	{
		name:     "iv-point",
		why:      "a few-us engine job: HTTP, decode, key, cache lookup and per-job overhead dominate",
		topology: "1 replica",
		keys:     27,
		replayN:  2000,
		body: func(seed, i uint64) ([]byte, int) {
			p := requestRNG(seed, i)
			key := int(p.Uint64() % 27)
			vg := 0.1 + 0.5*uniform(p)
			vd := 0.6 * uniform(p)
			return ivBody(key, vg, vd), key
		},
		warm: func(uint64) [][]byte {
			out := make([][]byte, 27)
			for k := range out {
				out[k] = ivBody(k, 0.5, 0.4)
			}
			return out
		},
	},
	{
		name:     "cold-model",
		why:      "every request misses the model cache and pays core.Fit, the cost no other workload shows",
		topology: "1 replica",
		replayN:  300,
		body: func(seed, i uint64) ([]byte, int) {
			return coldBody(seed, i), -1
		},
		warm: func(seed uint64) [][]byte {
			out := make([][]byte, 16)
			for k := range out {
				out[k] = coldBody(seed^coldSetupSeed, uint64(k))
			}
			return out
		},
	},
}

func workloadNamed(name string) (*workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	names := make([]string, len(workloads))
	for i, wl := range workloads {
		names[i] = wl.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// decodeJob decodes a body the way the server does.
func decodeJob(body []byte) (server.JobRequest, error) {
	var jr server.JobRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&jr)
	return jr, err
}

// engineRequest maps a decoded wire job onto the engine request the
// server would run, with m as the resolved model.
func engineRequest(jr server.JobRequest, m device.Solver) engine.Request {
	req := engine.Request{
		Model:  m,
		Bias:   fettoy.Bias{VG: jr.VG, VD: jr.VD},
		Gates:  jr.Gates,
		Drains: jr.Drains,
	}
	switch jr.Kind {
	case engine.IVPoint.String():
		req.Kind = engine.IVPoint
	case engine.FamilySweep.String():
		req.Kind = engine.FamilySweep
	}
	return req
}

// oracle answers requests independently of the service: engine.Run on
// a model resolved from its own ModelCache. Answers for the warm
// bodies are computed once, before any repetition, and remembered.
type oracle struct {
	cache *server.ModelCache
	mu    sync.Mutex
	memo  map[string]engine.Result
}

func newOracle() *oracle {
	return &oracle{cache: server.NewModelCache(), memo: map[string]engine.Result{}}
}

// answer returns the reference result for a request body.
func (o *oracle) answer(ctx context.Context, body []byte) (engine.Result, error) {
	o.mu.Lock()
	res, ok := o.memo[string(body)]
	o.mu.Unlock()
	if ok {
		return res, nil
	}
	jr, err := decodeJob(body)
	if err != nil {
		return engine.Result{}, fmt.Errorf("oracle: decoding request: %w", err)
	}
	m, _, err := o.cache.Resolve(ctx, *jr.Model)
	if err != nil {
		return engine.Result{}, fmt.Errorf("oracle: resolving model: %w", err)
	}
	return engine.Run(ctx, engineRequest(jr, m))
}

// remember precomputes and keeps the answers for bodies.
func (o *oracle) remember(ctx context.Context, bodies [][]byte) error {
	for _, b := range bodies {
		res, err := o.answer(ctx, b)
		if err != nil {
			return err
		}
		o.mu.Lock()
		o.memo[string(b)] = res
		o.mu.Unlock()
	}
	return nil
}

// verify checks one response body against the oracle, bit for bit.
func (o *oracle) verify(ctx context.Context, body, resp []byte, streamed bool) error {
	want, err := o.answer(ctx, body)
	if err != nil {
		return err
	}
	got, err := decodeAnswer(resp, streamed)
	if err != nil {
		return err
	}
	return sameAnswer(want, got)
}

// decodeAnswer decodes a buffered JSON answer, or reassembles a
// streamed one's rows into its family.
func decodeAnswer(resp []byte, streamed bool) (server.JobResponse, error) {
	var jr server.JobResponse
	if !streamed {
		if err := json.Unmarshal(resp, &jr); err != nil {
			return jr, fmt.Errorf("decoding response: %w", err)
		}
		return jr, nil
	}
	done := false
	for _, line := range bytes.Split(bytes.TrimSpace(resp), []byte("\n")) {
		var f server.StreamFrame
		if err := json.Unmarshal(line, &f); err != nil {
			return jr, fmt.Errorf("decoding stream frame: %w", err)
		}
		switch {
		case done:
			return jr, errors.New("frame after the done frame")
		case f.Error != nil:
			return jr, fmt.Errorf("error frame: %s", f.Error.Error)
		case f.Row != nil:
			if f.Row.Index != len(jr.Family) {
				return jr, fmt.Errorf("row %d arrived as row %d", f.Row.Index, len(jr.Family))
			}
			jr.Family = append(jr.Family, server.Curve{VG: f.Row.VG, VDS: f.Row.VDS, IDS: f.Row.IDS})
		case f.Done != nil:
			jr.Kind = f.Done.Kind
			done = true
		}
	}
	if !done {
		return jr, errors.New("stream without a done frame")
	}
	return jr, nil
}

// sameBits compares float64 slices bit for bit; Go's JSON float
// encoding round-trips, so a served answer must match exactly.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameAnswer(want engine.Result, got server.JobResponse) error {
	if !sameBits([]float64{want.IDS}, []float64{got.IDS}) {
		return fmt.Errorf("ids %v, oracle %v", got.IDS, want.IDS)
	}
	if want.OP != (fettoy.OperatingPoint{}) {
		if got.OP == nil {
			return errors.New("operating point missing")
		}
		w := []float64{want.OP.VSC, want.OP.IDS, want.OP.QS, want.OP.QD}
		g := []float64{got.OP.VSC, got.OP.IDS, got.OP.QS, got.OP.QD}
		if !sameBits(w, g) {
			return fmt.Errorf("operating point %v, oracle %v", g, w)
		}
	}
	if len(got.Family) != len(want.Family) {
		return fmt.Errorf("%d curves, oracle %d", len(got.Family), len(want.Family))
	}
	for i, c := range want.Family {
		g := got.Family[i]
		if !sameBits([]float64{c.VG}, []float64{g.VG}) || !sameBits(c.VDS, g.VDS) || !sameBits(c.IDS, g.IDS) {
			return fmt.Errorf("curve %d (VG=%g) differs from the oracle", i, c.VG)
		}
	}
	return nil
}

// checkFrames is the cheap check every streamed answer gets: no error
// frame, and a done frame last.
func checkFrames(resp []byte) error {
	lines := bytes.Split(bytes.TrimSpace(resp), []byte("\n"))
	for _, l := range lines {
		if bytes.HasPrefix(l, []byte(`{"error"`)) {
			return fmt.Errorf("error frame: %s", l)
		}
	}
	if !bytes.HasPrefix(lines[len(lines)-1], []byte(`{"done"`)) {
		return errors.New("stream without a done frame")
	}
	return nil
}
