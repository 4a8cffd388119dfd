// wire.go is the JSON schema of the sweep service: the structures a
// client POSTs to /v1/jobs and the response it reads back, plus the
// translation into/out of the engine's native types. engine.Request
// holds interface-typed models, so the wire form names a model family
// and the device parameters instead — the server resolves that
// description against its keyed model cache (cache.go) before
// dispatching to engine.Run.
package server

import (
	"context"
	"fmt"
	"strings"

	"cntfet/internal/engine"
	"cntfet/internal/fettoy"
	"cntfet/internal/sweep"
	"cntfet/internal/variation"
)

// Model families the wire schema can name. "reference" is the
// FETToy-style theory backed by a charge table (so repeated requests
// reuse one tabulation); "model1"/"model2" are the paper's piecewise
// closed-form models. An empty family defaults to DefaultFamily — the
// closed-form serving path — so the reference model is opt-in (as an
// rms-compare oracle or for explicit theory sweeps).
const (
	FamilyReference = "reference"
	FamilyModel1    = "model1"
	FamilyModel2    = "model2"

	// DefaultFamily is what an absent/empty "family" resolves to:
	// Model 1, the paper's piecewise closed-form model. Serving defaults
	// to the analytical path; numerics stay available as the oracle.
	DefaultFamily = FamilyModel1
)

// familyOrDefault normalises an empty wire family to DefaultFamily.
// Both the cache key and the build go through this, so an explicit
// "model1" and an omitted family share one cached model.
func familyOrDefault(family string) string {
	if family == "" {
		return DefaultFamily
	}
	return family
}

// Device presets the wire schema can name.
const (
	DeviceDefault = "default"
	DeviceJavey   = "javey"
)

// ModelSpec names a concrete device model without shipping one over
// the wire: a model family fitted to a preset device, with the two
// per-study parameters the paper varies (temperature and Fermi level)
// overridable. The tuple (family, device, t, ef) is also the model
// cache key.
type ModelSpec struct {
	// Family is "reference", "model1" or "model2". Empty defaults to
	// DefaultFamily (model1, the closed-form serving path); MonteCarlo
	// jobs use only the device parameters and ignore it entirely.
	Family string `json:"family,omitempty"`
	// Device is the preset name: "default" (the paper's nominal
	// device, also the zero value) or "javey" (the section-VI
	// experimental device).
	Device string `json:"device,omitempty"`
	// T overrides the preset lattice temperature in kelvin (K); 0
	// keeps the preset value.
	T float64 `json:"t,omitempty"`
	// EF overrides the preset source Fermi level in eV; null keeps the
	// preset value (0 is a legitimate override — table IV).
	EF *float64 `json:"ef,omitempty"`
}

// device resolves the preset and applies the overrides.
func (m ModelSpec) device() (fettoy.Device, error) {
	var dev fettoy.Device
	switch m.Device {
	case DeviceDefault, "":
		dev = fettoy.Default()
	case DeviceJavey:
		dev = fettoy.Javey()
	default:
		return fettoy.Device{}, fmt.Errorf("unknown device preset %q (want %q or %q)",
			m.Device, DeviceDefault, DeviceJavey)
	}
	if m.T != 0 { //lint:allow floatcmp zero value keeps the preset temperature
		dev.T = m.T
	}
	if m.EF != nil {
		dev.EF = *m.EF
	}
	if err := dev.Validate(); err != nil {
		return fettoy.Device{}, err
	}
	return dev, nil
}

// Curve is the wire form of one IDS(VDS) sweep at fixed VG: the
// engine's own sweep.Curve, whose JSON tags spell "vg", "vds" and
// "ids". Voltages are in volts, currents in amperes. The curves of one
// answer's family share one read-only drain grid.
type Curve = sweep.Curve

// JobRequest is the body of POST /v1/jobs. Kind selects the job;
// per-kind field requirements mirror engine.Request (the engine's own
// validation backstops anything the wire layer lets through).
type JobRequest struct {
	// Kind is one of "iv-point", "family-sweep", "rms-compare",
	// "monte-carlo".
	Kind string `json:"kind"`

	// Model is the device under test (all kinds; MonteCarlo reads only
	// its device parameters).
	Model *ModelSpec `json:"model"`
	// Ref or RefFamily supply the rms-compare reference: a model to
	// sweep on the same grid, or precomputed curves. Exactly one.
	Ref       *ModelSpec `json:"ref,omitempty"`
	RefFamily []Curve    `json:"ref_family,omitempty"`

	// VG and VD are the bias point in volts (iv-point, monte-carlo).
	VG float64 `json:"vg,omitempty"`
	VD float64 `json:"vd,omitempty"`
	// Gates and Drains are the sweep grids in volts (family-sweep,
	// rms-compare).
	Gates  []float64 `json:"gates,omitempty"`
	Drains []float64 `json:"drains,omitempty"`

	// Workers steers the sweep scheduler (0 = GOMAXPROCS, 1 = whole
	// rows on one goroutine, at most maxWorkers).
	Workers int `json:"workers,omitempty"`

	// Monte Carlo study shape: per-device dispersion (one standard
	// deviation each), sample count (at most maxSamples) and RNG seed.
	EFSigma       float64 `json:"ef_sigma,omitempty"`
	DiameterSigma float64 `json:"diameter_sigma,omitempty"`
	Samples       int     `json:"samples,omitempty"`
	Seed          int64   `json:"seed,omitempty"`

	// Stream asks for a chunked NDJSON response: one frame per result
	// row (or Monte Carlo checkpoint) as it is computed, then a "done"
	// frame — see StreamFrame. An "Accept: application/x-ndjson"
	// request header selects the same path.
	Stream bool `json:"stream,omitempty"`
}

// kinds maps the wire kind names onto the engine's. Netlist jobs are
// deliberately absent: decks execute arbitrary analyses and belong to
// the CLIs, not a multi-tenant endpoint.
var kinds = map[string]engine.Kind{
	engine.IVPoint.String():     engine.IVPoint,
	engine.FamilySweep.String(): engine.FamilySweep,
	engine.RMSCompare.String():  engine.RMSCompare,
	engine.MonteCarlo.String():  engine.MonteCarlo,
}

// resolveMeta describes how the request's primary model resolved —
// the cache identity and outcome the job log and request span report.
// Resolved is false for kinds that never touch the cache (MonteCarlo
// fits per-sample models from raw device parameters).
type resolveMeta struct {
	model    specID
	CacheHit bool
	Resolved bool
}

// modelKey renders the primary model's identity (ModelSpec.Key). It is
// formatted only when a span or the job log reads it.
func (m resolveMeta) modelKey() string { return m.model.String() }

// maxWorkers and maxSamples bound the job sizes a client sets: a
// sweep starts workers−1 goroutines and grows a workers-long scratch,
// and a Monte Carlo study allocates its samples up front, so one small
// body could otherwise exhaust a replica's memory. They are constants,
// so every replica gives the same answer.
const (
	maxWorkers = 256
	maxSamples = 1 << 20
)

// toEngine resolves the wire request into an engine.Request, looking
// models up through the resolver under the job's context. model and ref
// are jr.Model and jr.Ref, identified. Every error it returns is a
// client-side problem (the server maps them to HTTP 400).
func (jr JobRequest) toEngine(ctx context.Context, res Resolver, model, ref specID) (engine.Request, resolveMeta, error) {
	var meta resolveMeta
	kind, ok := kinds[jr.Kind]
	if !ok {
		known := make([]string, 0, len(kinds))
		for k := range kinds {
			known = append(known, k)
		}
		return engine.Request{}, meta, fmt.Errorf("unknown kind %q (want one of %s)",
			jr.Kind, strings.Join(known, ", "))
	}
	if jr.Model == nil {
		return engine.Request{}, meta, fmt.Errorf("%s needs a model", jr.Kind)
	}
	if jr.Workers < 0 || jr.Workers > maxWorkers {
		return engine.Request{}, meta, fmt.Errorf("workers %d outside [0, %d] (0 means GOMAXPROCS)", jr.Workers, maxWorkers)
	}
	if jr.Samples > maxSamples {
		return engine.Request{}, meta, fmt.Errorf("samples %d above the limit %d", jr.Samples, maxSamples)
	}
	req := engine.Request{
		Kind:    kind,
		Bias:    fettoy.Bias{VG: jr.VG, VD: jr.VD},
		Gates:   jr.Gates,
		Drains:  jr.Drains,
		Workers: jr.Workers,
		Spread:  variation.Spread{EF: jr.EFSigma, DiameterRel: jr.DiameterSigma},
		Samples: jr.Samples,
		Seed:    jr.Seed,
	}
	if kind == engine.MonteCarlo {
		// MC fits its own piecewise models per sample; only the device
		// parameters travel.
		if model.err != nil {
			return engine.Request{}, meta, fmt.Errorf("model: %w", model.err)
		}
		req.Device = model.dev
		return req, meta, nil
	}

	m, cached, err := resolveID(ctx, res, model)
	if err != nil {
		return engine.Request{}, meta, fmt.Errorf("model: %w", err)
	}
	req.Model = m
	meta = resolveMeta{model: model, CacheHit: cached, Resolved: true}

	if kind == engine.RMSCompare {
		if jr.Ref != nil && jr.RefFamily != nil {
			return engine.Request{}, meta, fmt.Errorf("%s takes ref or ref_family, not both", jr.Kind)
		}
		switch {
		case jr.Ref != nil:
			r, _, err := resolveID(ctx, res, ref)
			if err != nil {
				return engine.Request{}, meta, fmt.Errorf("ref: %w", err)
			}
			req.Ref = r
		case jr.RefFamily != nil:
			req.RefFamily = jr.RefFamily
		default:
			return engine.Request{}, meta, fmt.Errorf("%s needs ref or ref_family", jr.Kind)
		}
	}
	return req, meta, nil
}

// OperatingPoint is the wire form of a solved bias point: the
// self-consistent voltage in volts, current in amperes, terminal
// charges in C/m.
type OperatingPoint struct {
	VSC float64 `json:"vsc"`
	IDS float64 `json:"ids"`
	QS  float64 `json:"qs"`
	QD  float64 `json:"qd"`
}

// MCResult is the wire form of a Monte Carlo summary (currents in
// amperes).
type MCResult struct {
	Samples []float64 `json:"samples"`
	Mean    float64   `json:"mean"`
	Std     float64   `json:"std"`
	P5      float64   `json:"p5"`
	P50     float64   `json:"p50"`
	P95     float64   `json:"p95"`
}

// JobResponse is the body of a successful /v1/jobs answer. Only the
// fields of the requested kind are populated; Metrics carries the
// job's telemetry counter deltas and ElapsedNS its wall-clock
// duration.
type JobResponse struct {
	Kind string `json:"kind"`

	IDS float64         `json:"ids,omitempty"`
	OP  *OperatingPoint `json:"op,omitempty"`

	Family     []Curve   `json:"family,omitempty"`
	RefFamily  []Curve   `json:"ref_family,omitempty"`
	RMSPercent []float64 `json:"rms_percent,omitempty"`

	MC *MCResult `json:"mc,omitempty"`

	Metrics   map[string]int64 `json:"metrics,omitempty"`
	ElapsedNS int64            `json:"elapsed_ns"`
}

// toWire converts an engine result for the wire.
func toWire(kind string, res engine.Result) JobResponse {
	out := JobResponse{
		Kind:       kind,
		IDS:        res.IDS,
		Family:     res.Family,
		RefFamily:  res.RefFamily,
		RMSPercent: res.RMSPercent,
		Metrics:    res.Metrics,
		ElapsedNS:  int64(res.Elapsed),
	}
	if res.OP != (fettoy.OperatingPoint{}) {
		out.OP = &OperatingPoint{VSC: res.OP.VSC, IDS: res.OP.IDS, QS: res.OP.QS, QD: res.OP.QD}
	}
	if res.MC != nil {
		out.MC = &MCResult{
			Samples: res.MC.Samples,
			Mean:    res.MC.Mean, Std: res.MC.Std,
			P5: res.MC.P5, P50: res.MC.P50, P95: res.MC.P95,
		}
	}
	return out
}

// ErrorResponse is the body of a non-2xx answer. Class is the engine
// taxonomy bucket the failure mapped to ("invalid-request",
// "canceled", "numerical", "saturated" or "internal").
type ErrorResponse struct {
	Error string `json:"error"`
	Class string `json:"class"`
}
