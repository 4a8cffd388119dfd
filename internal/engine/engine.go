// Package engine is the orchestration layer between the device models
// and every front-end: one request/response job API over the unified
// capability interfaces of internal/device. CLIs and the sweep-service
// front-end (internal/server) build a Request, call Run with a context, and
// print from the Result — model selection, sweep-strategy dispatch,
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
// the sweep worker loops (checked per point), the batched row loop,
// the Monte Carlo sample loop, the netlist analysis loop and the
// adaptive charge-table build.
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
	// voltage: Result.Family. Repeat > 1 re-runs the sweep (benchmark
	// loops); the last family is returned.
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

// Strategy selects how a family sweep is scheduled.
type Strategy int

// Sweep strategies.
const (
	// Auto picks Batch when Workers == 1 and Parallel otherwise —
	// including the zero default, which FamilyParallel expands to
	// GOMAXPROCS. A default request therefore saturates the machine;
	// only an explicit Workers: 1 opts into the single-threaded batch
	// path (which the reference model's warm-start continuation still
	// prefers for strictly serial rows).
	Auto Strategy = iota
	// Serial forces the plain row-by-row Family loop (the paper's
	// Table I benchmark protocol).
	Serial
	// Batch forces the device.BatchSolver path with serial fallback.
	Batch
	// Parallel forces the chunked worker scheduler.
	Parallel
)

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
	// Strategy and Workers steer sweep scheduling; see Strategy.
	Strategy Strategy
	Workers  int
	// Repeat re-runs a FamilySweep (benchmark loops). 0 means once.
	Repeat int

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
	// RMSPercent (one entry per gate voltage) answer RMSCompare.
	Family     []sweep.Curve
	RefFamily  []sweep.Curve
	RMSPercent []float64

	// MC answers MonteCarlo.
	MC *variation.Result

	// Metrics holds the per-job telemetry counter deltas (quadrature
	// points, Newton iterations, sweep points, ...). Deltas are exact
	// for a job running alone and attributably approximate under
	// concurrent jobs (the registry is process-wide).
	Metrics map[string]int64
	// Elapsed is the wall-clock job duration.
	Elapsed time.Duration
}

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
	res, err := dispatch(ctx, req)
	res.Elapsed = time.Since(start)
	res.Metrics = reg.CounterDelta(*mark)
	markPool.Put(mark)
	reg.Histogram(telemetry.KeyEngineJobSeconds, telemetry.LatencyBuckets).
		Observe(res.Elapsed.Seconds())
	// The per-job counter deltas double as span attributes: the same
	// Newton-iteration and cache-hit movement that is global noise in
	// the registry is exact cost attribution on the job's span.
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

func dispatch(ctx context.Context, req Request) (Result, error) {
	if err := context.Cause(ctx); err != nil {
		return Result{}, err
	}
	switch req.Kind {
	case IVPoint:
		return runIVPoint(ctx, req)
	case FamilySweep:
		return runFamily(ctx, req)
	case RMSCompare:
		return runRMSCompare(ctx, req)
	case MonteCarlo:
		return runMonteCarlo(ctx, req)
	case Netlist:
		return runNetlist(ctx, req)
	}
	return Result{}, invalidf("engine: unknown job kind %d", int(req.Kind))
}

func runIVPoint(ctx context.Context, req Request) (Result, error) {
	if req.Model == nil {
		return Result{}, invalidf("engine: %s needs Model", req.Kind)
	}
	// A table-backed model pays its one-time tabulation here, under the
	// job's context, instead of uncancellably inside the first solve.
	if err := prebuild(ctx, req.Model); err != nil {
		return Result{}, err
	}
	if err := context.Cause(ctx); err != nil {
		return Result{}, err
	}
	var res Result
	if d, ok := req.Model.(device.Device); ok {
		op, err := d.Solve(req.Bias)
		if err != nil {
			return Result{}, err
		}
		res.OP = op
		res.IDS = op.IDS
		return res, nil
	}
	ids, err := req.Model.IDS(req.Bias)
	if err != nil {
		return Result{}, err
	}
	res.IDS = ids
	return res, nil
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

// resolveStrategy maps Auto onto a concrete scheduler. Workers == 0
// means "use GOMAXPROCS" to FamilyParallel, so the zero-value request
// resolves to the parallel scheduler; only an explicit Workers: 1
// keeps the serial batch path.
func resolveStrategy(st Strategy, workers int) Strategy {
	if st != Auto {
		return st
	}
	if workers == 1 {
		return Batch
	}
	return Parallel
}

// familyOnceTo runs one family sweep under the resolved strategy,
// handing rows to emit in gate order as they complete.
func familyOnceTo(ctx context.Context, req Request, m device.Solver, emit func(int, sweep.Curve) error) error {
	switch resolveStrategy(req.Strategy, req.Workers) {
	case Serial:
		return sweep.FamilyTo(ctx, m, req.Gates, req.Drains, emit)
	case Parallel:
		return sweep.FamilyParallelTo(ctx, m, req.Gates, req.Drains, req.Workers, emit)
	default:
		return sweep.FamilyBatchTo(ctx, m, req.Gates, req.Drains, emit)
	}
}

// familyOnce is the collecting wrapper over familyOnceTo.
func familyOnce(ctx context.Context, req Request, m device.Solver) ([]sweep.Curve, error) {
	out := make([]sweep.Curve, 0, len(req.Gates))
	if err := familyOnceTo(ctx, req, m, func(_ int, c sweep.Curve) error {
		out = append(out, c)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

func validateGrid(req Request) error {
	if req.Model == nil {
		return invalidf("engine: %s needs Model", req.Kind)
	}
	if len(req.Gates) == 0 || len(req.Drains) == 0 {
		return invalidf("engine: %s needs a non-empty Gates x Drains grid", req.Kind)
	}
	return nil
}

func runFamily(ctx context.Context, req Request) (Result, error) {
	if err := validateGrid(req); err != nil {
		return Result{}, err
	}
	if err := prebuild(ctx, req.Model); err != nil {
		return Result{}, err
	}
	repeat := req.Repeat
	if repeat < 1 {
		repeat = 1
	}
	var res Result
	for i := 0; i < repeat; i++ {
		if req.Sink != nil && i == repeat-1 {
			// Streaming iteration: rows leave through the sink as they
			// complete and are not buffered — a million-point sweep
			// holds one row at a time (batch path) instead of the whole
			// family. Earlier Repeat iterations (benchmark loops) run
			// buffered and are discarded, as before.
			if err := familyOnceTo(ctx, req, req.Model, rowEmit(req.Sink, false)); err != nil {
				return Result{}, err
			}
			res.Family = nil
			continue
		}
		fam, err := familyOnce(ctx, req, req.Model)
		if err != nil {
			return Result{}, err
		}
		res.Family = fam
	}
	return res, nil
}

func runRMSCompare(ctx context.Context, req Request) (Result, error) {
	if err := validateGrid(req); err != nil {
		return Result{}, err
	}
	if (req.Ref == nil) == (req.RefFamily == nil) {
		return Result{}, invalidf("engine: %s needs exactly one of Ref or RefFamily", req.Kind)
	}
	// A precomputed reference family must actually cover the grid: an
	// empty or mis-sized RefFamily is a malformed request, not the
	// numerical failure sweep.CompareFamilies would later report it as.
	if req.Ref == nil {
		if len(req.RefFamily) == 0 {
			return Result{}, invalidf("engine: %s needs a non-empty RefFamily", req.Kind)
		}
		if len(req.RefFamily) != len(req.Gates) {
			return Result{}, invalidf("engine: %s RefFamily has %d curves for %d gate voltages",
				req.Kind, len(req.RefFamily), len(req.Gates))
		}
	}
	var res Result
	refFam := req.RefFamily
	if req.Ref != nil {
		if err := prebuild(ctx, req.Ref); err != nil {
			return Result{}, err
		}
		// The comparison needs the whole reference family, so the rows
		// are collected either way; with a sink they stream out too
		// (Ref: true) as they complete.
		refFam = make([]sweep.Curve, 0, len(req.Gates))
		collect := func(gi int, c sweep.Curve) error {
			refFam = append(refFam, c)
			if req.Sink != nil {
				return rowEmit(req.Sink, true)(gi, c)
			}
			return nil
		}
		if err := familyOnceTo(ctx, req, req.Ref, collect); err != nil {
			return Result{}, err
		}
	} else if req.Sink != nil {
		// A precomputed reference still streams, so a consumer sees the
		// same row sequence whichever way the reference was supplied.
		for gi, c := range refFam {
			if err := rowEmit(req.Sink, true)(gi, c); err != nil {
				return Result{}, err
			}
		}
	}
	if err := prebuild(ctx, req.Model); err != nil {
		return Result{}, err
	}
	fam := make([]sweep.Curve, 0, len(req.Gates))
	collect := func(gi int, c sweep.Curve) error {
		fam = append(fam, c)
		if req.Sink != nil {
			return rowEmit(req.Sink, false)(gi, c)
		}
		return nil
	}
	if err := familyOnceTo(ctx, req, req.Model, collect); err != nil {
		return Result{}, err
	}
	rms, err := sweep.CompareFamilies(fam, refFam)
	if err != nil {
		return Result{}, err
	}
	res.Family = fam
	res.RefFamily = refFam
	res.RMSPercent = rms
	return res, nil
}

func runMonteCarlo(ctx context.Context, req Request) (Result, error) {
	if req.Samples < 1 {
		return Result{}, invalidf("engine: %s needs Samples >= 1, got %d", req.Kind, req.Samples)
	}
	var every int
	var emit func(variation.Partial) error
	if req.Sink != nil {
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
			if err := req.Sink.Emit(ev); err != nil {
				return fmt.Errorf("%w: %w", ErrSinkClosed, err)
			}
			return nil
		}
	}
	mc, err := variation.MonteCarloIDSTo(ctx, req.Device, req.Spread, req.Bias, req.Samples, req.Seed, every, emit)
	if err != nil {
		return Result{}, err
	}
	return Result{MC: &mc}, nil
}

func runNetlist(ctx context.Context, req Request) (Result, error) {
	if req.Deck == nil {
		return Result{}, invalidf("engine: %s needs Deck", req.Kind)
	}
	out := req.Output
	if out == nil {
		out = io.Discard
	}
	return Result{}, req.Deck.RunContext(ctx, out)
}
