// Package engine is the orchestration layer between the device models
// and every front-end: one request/response job API over the unified
// capability interfaces of internal/device. CLIs and the sweep-service
// front-end (internal/server) build a Request, call Run with a context, and
// print from the Result — model selection, sweep scheduling,
// cancellation, error classification and request-scoped telemetry all
// live here instead of being re-implemented per front-end.
//
// Job lifecycle:
//
//	Request ── validate ── pre-build (device.ContextBuilder, cancellable)
//	        ── dispatch by Kind over capability interfaces
//	        ── Result{payload, Metrics: counter deltas, Elapsed}
//	        └─ on failure: *JobError{Kind, Class, Err}  (see errors.go)
//
// Cancellation is cooperative and prompt: the context threads through
// the sweep scheduler (checked per chunk, or per point for models
// without a batch kernel), the Monte Carlo sample loop, the netlist
// analysis loop, the transient timestep loops and the adaptive
// charge-table build.
package engine

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"cntfet/internal/device"
	"cntfet/internal/fettoy"
	"cntfet/internal/netlist"
	"cntfet/internal/sweep"
	"cntfet/internal/telemetry"
	"cntfet/internal/variation"
)

// Kind selects the job a Request describes.
type Kind int

// Job kinds.
const (
	// IVPoint solves one bias point: Result.IDS, and Result.OP when the
	// model provides the full operating-point capability.
	IVPoint Kind = iota + 1
	// FamilySweep evaluates a family of IDS(VDS) curves, one per gate
	// voltage: Result.Family.
	FamilySweep
	// RMSCompare sweeps Model and a reference (Ref, or the precomputed
	// RefFamily) on the same grid and computes the paper's per-gate RMS
	// error: Result.Family, Result.RefFamily, Result.RMSPercent.
	RMSCompare
	// MonteCarlo runs a process-variability study: Result.MC.
	MonteCarlo
	// Netlist executes a parsed SPICE-style deck, writing analysis
	// tables to Output.
	Netlist
)

func (k Kind) String() string {
	switch k {
	case IVPoint:
		return "iv-point"
	case FamilySweep:
		return "family-sweep"
	case RMSCompare:
		return "rms-compare"
	case MonteCarlo:
		return "monte-carlo"
	case Netlist:
		return "netlist"
	}
	return "unknown"
}

// Request describes one job. Kind selects which fields matter; the
// per-kind validation rejects missing ones with ErrInvalidRequest.
type Request struct {
	Kind Kind

	// Model is the device under test (IVPoint, FamilySweep,
	// RMSCompare). Optional capabilities — warm start, batch, analytic
	// gradients, cancellable pre-build — are discovered by type
	// assertion against internal/device.
	Model device.Solver
	// Ref is the reference device an RMSCompare sweeps on the same
	// grid. Alternatively RefFamily supplies precomputed (or
	// experimental) reference curves; exactly one must be set.
	Ref       device.Solver
	RefFamily []sweep.Curve

	// Bias is the operating point (IVPoint, MonteCarlo).
	Bias fettoy.Bias
	// Gates and Drains define the sweep grid (FamilySweep, RMSCompare).
	Gates, Drains []float64
	// Workers steers sweep scheduling (sweep.FamilyParallelTo): 0
	// means GOMAXPROCS, 1 sweeps whole rows on one goroutine — the
	// reference model's warm-start chain then runs unbroken along each
	// row.
	Workers int

	// Device and the fields below parameterise a MonteCarlo study.
	Device  fettoy.Device
	Spread  variation.Spread
	Samples int
	Seed    int64

	// Deck and Output drive a Netlist job. A nil Output discards the
	// analysis tables (the Metrics still report the solver work).
	Deck   *netlist.Deck
	Output io.Writer

	// Sink, when non-nil, receives results incrementally as the job
	// computes them — see the Sink interface for the ordering, memory
	// and error contract. Nil keeps the fully buffered Result.
	Sink Sink
}

// Result is a job's response. Only the fields of the requested Kind
// are populated, plus the request-scoped observability pair: Metrics
// (telemetry counter deltas attributable to this job — non-zero deltas
// only) and Elapsed.
type Result struct {
	// IDS and OP answer an IVPoint (OP only when the model implements
	// device.Device; OP.IDS == IDS then).
	IDS float64
	OP  fettoy.OperatingPoint

	// Family answers FamilySweep and RMSCompare; RefFamily and
	// RMSPercent (one entry per gate voltage) answer RMSCompare. The
	// curves of a swept family share one read-only VDS grid.
	Family     []sweep.Curve
	RefFamily  []sweep.Curve
	RMSPercent []float64

	// MC answers MonteCarlo.
	MC *variation.Result

	// Metrics holds the per-job telemetry counter deltas (quadrature
	// points, Newton iterations, sweep points, ...). Deltas are exact
	// for a job running alone and attributably approximate under
	// concurrent jobs (the registry is process-wide). The counters the
	// front ends own (server.*, cluster.*) are left out: they count
	// requests, not job work, so another request's outcome — a
	// concurrent 499, say — never lands in this job's Metrics.
	Metrics map[string]int64
	// Elapsed is the wall-clock job duration.
	Elapsed time.Duration
}

// frontEndCounters are the key prefixes Result.Metrics leaves out.
var frontEndCounters = []string{telemetry.PrefixServer, telemetry.PrefixCluster}

// markPool recycles the per-job counter marks Run diffs Metrics
// against, so a job's bookkeeping costs two passes over the counters
// instead of two whole-registry snapshots.
var markPool = sync.Pool{New: func() any { return new([]int64) }}

// Run executes one job. It is safe for concurrent use; the models
// referenced by the request must themselves be safe for concurrent use
// if shared across jobs (both library models are, after construction).
// Errors are classified — see JobError.
func Run(ctx context.Context, req Request) (Result, error) {
	if ctx == nil {
		ctx = context.Background() //lint:allow ctxpropagate documented nil-context guard, not a root context
	}
	reg := telemetry.Default()
	reg.Counter(telemetry.KeyEngineJobs).Inc()
	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanEngineJob)
	span.Set(telemetry.String(telemetry.AttrJobKind, req.Kind.String()))
	mark := markPool.Get().(*[]int64)
	*mark = reg.CounterMark(*mark)
	start := time.Now()
	var res Result
	err := dispatch(ctx, &req, &res)
	if err != nil {
		res = Result{} // a failed job reports no partial payload
	}
	res.Elapsed = time.Since(start)
	res.Metrics = reg.CounterDelta(*mark, frontEndCounters...)
	markPool.Put(mark)
	reg.Histogram(telemetry.KeyEngineJobSeconds, telemetry.LatencyBuckets).
		Observe(res.Elapsed.Seconds())
	// The per-job counter deltas double as span attributes, so the
	// job's span carries its Newton-iteration and cache-hit movement.
	// Like Metrics, they are exact for a job running alone and include
	// whatever concurrent jobs counted meanwhile (the registry is
	// process-wide).
	span.SetMetrics(res.Metrics)
	if len(req.Gates) > 0 || len(req.Drains) > 0 {
		span.Set(
			telemetry.Int(telemetry.AttrGates, int64(len(req.Gates))),
			telemetry.Int(telemetry.AttrDrains, int64(len(req.Drains))),
		)
	}
	if err != nil {
		span.Set(telemetry.String(telemetry.AttrError, err.Error()))
		span.End()
		return res, classify(req.Kind, err)
	}
	span.End()
	return res, nil
}

// dispatch runs the job req describes, filling its payload into res.
// The request and result travel by pointer: both are a few hundred
// bytes, and copying them through every call was a visible share of a
// microsecond job.
func dispatch(ctx context.Context, req *Request, res *Result) error {
	if err := context.Cause(ctx); err != nil {
		return err
	}
	switch req.Kind {
	case IVPoint:
		return runIVPoint(ctx, req, res)
	case FamilySweep:
		return runFamily(ctx, req, res)
	case RMSCompare:
		return runRMSCompare(ctx, req, res)
	case MonteCarlo:
		return runMonteCarlo(ctx, req, res)
	case Netlist:
		return runNetlist(ctx, req)
	}
	return invalidf("engine: unknown job kind %d", int(req.Kind))
}

func runIVPoint(ctx context.Context, req *Request, res *Result) error {
	if req.Model == nil {
		return invalidf("engine: %s needs Model", req.Kind)
	}
	// A table-backed model pays its one-time tabulation here, under the
	// job's context, instead of uncancellably inside the first solve.
	if err := prebuild(ctx, req.Model); err != nil {
		return err
	}
	if err := context.Cause(ctx); err != nil {
		return err
	}
	if d, ok := req.Model.(device.Device); ok {
		op, err := d.Solve(req.Bias)
		if err != nil {
			return err
		}
		res.OP = op
		res.IDS = op.IDS
		return nil
	}
	ids, err := req.Model.IDS(req.Bias)
	if err != nil {
		return err
	}
	res.IDS = ids
	return nil
}

// prebuild completes a model's deferred construction (charge-table
// tabulation) under the job's context, so the one-time cost is
// cancellable instead of hiding inside the first solve.
func prebuild(ctx context.Context, m device.Solver) error {
	if cb, ok := m.(device.ContextBuilder); ok {
		return cb.BuildContext(ctx)
	}
	return nil
}

func validateGrid(req *Request) error {
	if req.Model == nil {
		return invalidf("engine: %s needs Model", req.Kind)
	}
	if len(req.Gates) == 0 || len(req.Drains) == 0 {
		return invalidf("engine: %s needs a non-empty Gates x Drains grid", req.Kind)
	}
	return nil
}

func runFamily(ctx context.Context, req *Request, res *Result) error {
	if err := validateGrid(req); err != nil {
		return err
	}
	if err := prebuild(ctx, req.Model); err != nil {
		return err
	}
	if req.Sink != nil {
		// Rows leave through the sink as they complete and are not
		// buffered — a million-point sweep at Workers: 1 holds one row
		// at a time instead of the whole family.
		return sweep.FamilyParallelTo(ctx, req.Model, req.Gates, req.Drains, req.Workers, rowEmit(req.Sink, false))
	}
	fam := make([]sweep.Curve, 0, len(req.Gates))
	if err := sweep.FamilyParallelTo(ctx, req.Model, req.Gates, req.Drains, req.Workers, sweep.Collect(&fam)); err != nil {
		return err
	}
	res.Family = fam
	return nil
}

func runRMSCompare(ctx context.Context, req *Request, res *Result) error {
	if err := validateGrid(req); err != nil {
		return err
	}
	if (req.Ref == nil) == (req.RefFamily == nil) {
		return invalidf("engine: %s needs exactly one of Ref or RefFamily", req.Kind)
	}
	// A precomputed reference family must actually cover the grid: an
	// empty or mis-sized RefFamily is a malformed request, not the
	// numerical failure sweep.CompareFamilies would later report it as.
	if req.Ref == nil {
		if len(req.RefFamily) == 0 {
			return invalidf("engine: %s needs a non-empty RefFamily", req.Kind)
		}
		if len(req.RefFamily) != len(req.Gates) {
			return invalidf("engine: %s RefFamily has %d curves for %d gate voltages",
				req.Kind, len(req.RefFamily), len(req.Gates))
		}
	}
	// The row callbacks capture the sink, not req, so the request
	// stays on Run's stack.
	sink := req.Sink
	refFam := req.RefFamily
	if req.Ref != nil {
		if err := prebuild(ctx, req.Ref); err != nil {
			return err
		}
		// The comparison needs the whole reference family, so the rows
		// are collected either way; with a sink they stream out too
		// (Ref: true) as they complete.
		refFam = make([]sweep.Curve, 0, len(req.Gates))
		collect := func(gi int, c sweep.Curve) error {
			refFam = append(refFam, c)
			if sink != nil {
				return rowEmit(sink, true)(gi, c)
			}
			return nil
		}
		if err := sweep.FamilyParallelTo(ctx, req.Ref, req.Gates, req.Drains, req.Workers, collect); err != nil {
			return err
		}
	} else if sink != nil {
		// A precomputed reference still streams, so a consumer sees the
		// same row sequence whichever way the reference was supplied.
		for gi, c := range refFam {
			if err := rowEmit(sink, true)(gi, c); err != nil {
				return err
			}
		}
	}
	if err := prebuild(ctx, req.Model); err != nil {
		return err
	}
	fam := make([]sweep.Curve, 0, len(req.Gates))
	collect := func(gi int, c sweep.Curve) error {
		fam = append(fam, c)
		if sink != nil {
			return rowEmit(sink, false)(gi, c)
		}
		return nil
	}
	if err := sweep.FamilyParallelTo(ctx, req.Model, req.Gates, req.Drains, req.Workers, collect); err != nil {
		return err
	}
	rms, err := sweep.CompareFamilies(fam, refFam)
	if err != nil {
		return err
	}
	res.Family = fam
	res.RefFamily = refFam
	res.RMSPercent = rms
	return nil
}

func runMonteCarlo(ctx context.Context, req *Request, res *Result) error {
	if req.Samples < 1 {
		return invalidf("engine: %s needs Samples >= 1, got %d", req.Kind, req.Samples)
	}
	var every int
	var emit func(variation.Partial) error
	if sink := req.Sink; sink != nil {
		// Checkpoint cadence: ~64 partials per study keeps a live
		// convergence picture without flooding small runs or starving
		// huge ones.
		every = req.Samples / 64
		if every < 1 {
			every = 1
		}
		if every > 16384 {
			every = 16384
		}
		emit = func(p variation.Partial) error {
			ev := Event{MC: &MCEvent{Done: p.Done, Total: p.Total, Mean: p.Mean, Std: p.Std}}
			if err := sink.Emit(ev); err != nil {
				return fmt.Errorf("%w: %w", ErrSinkClosed, err)
			}
			return nil
		}
	}
	mc, err := variation.MonteCarloIDSTo(ctx, req.Device, req.Spread, req.Bias, req.Samples, req.Seed, every, emit)
	if err != nil {
		return err
	}
	res.MC = &mc
	return nil
}

func runNetlist(ctx context.Context, req *Request) error {
	if req.Deck == nil {
		return invalidf("engine: %s needs Deck", req.Kind)
	}
	out := req.Output
	if out == nil {
		out = io.Discard
	}
	return req.Deck.Run(ctx, out)
}
