// Package a exercises the telemetry key discipline: instrument and
// trace names must come from the central keys.go registry.
package a

import (
	"context"
	"fmt"
	"time"

	"cntfet/internal/telemetry"
)

// localKey is a constant, but of the wrong package: only constants
// declared in internal/telemetry count as registered keys.
const localKey = "a.local"

func bad(reg *telemetry.Registry, tr *telemetry.Tracer, worker int) {
	reg.Counter("a.solves").Inc()                                     // want `must be a constant`
	reg.Timer("a.time")                                               // want `must be a constant`
	reg.Histogram("a.hist", nil)                                      // want `must be a constant`
	tr.Emit("a.event")                                                // want `must be a constant`
	tr.Emit(telemetry.KindFettoySolve, telemetry.Float("a.vsc", 0.1)) // want `must be a constant`
	reg.Counter(localKey).Inc()                                       // want `must be a constant`
	reg.Counter(fmt.Sprintf("a.worker.%d", worker)).Inc()             // want `must be a constant`
}

func good(reg *telemetry.Registry, tr *telemetry.Tracer, worker int) {
	reg.Counter(telemetry.KeySweepPoints).Inc()
	reg.Timer(telemetry.KeyFettoySolveTime)
	reg.Histogram(telemetry.KeyFettoySolveIters, nil)
	tr.Emit(telemetry.KindFettoySolve, telemetry.Float(telemetry.AttrVSC, 0.1), telemetry.Int(telemetry.AttrIters, 3))
	reg.Counter(fmt.Sprintf(telemetry.KeySweepWorkerPointsFmt, worker)).Inc()
}

func badSpans(ctx context.Context, spanner *telemetry.Tracer, lg *telemetry.Logger) {
	_, sp := telemetry.StartSpan(ctx, "a.span") // want `must be a constant`
	_, _ = spanner.StartSpan(ctx, "a.span")     // want `must be a constant`
	sp.Set(
		telemetry.String("a.field", "v"),    // want `must be a constant`
		telemetry.Int("a.iters", 1),         // want `must be a constant`
		telemetry.Float("a.vg", 0.5),        // want `must be a constant`
		telemetry.Bool("a.hit", true),       // want `must be a constant`
		telemetry.Dur("a.dur", time.Second), // want `must be a constant`
	)
	lg.Log("a.event") // want `must be a constant`
	sp.End()
}

func goodSpans(ctx context.Context, spanner *telemetry.Tracer, lg *telemetry.Logger) {
	ctx, sp := telemetry.StartSpan(ctx, telemetry.SpanEngineJob)
	_, sp2 := spanner.StartSpan(ctx, telemetry.SpanSweepChunk)
	sp.Set(
		telemetry.String(telemetry.AttrModelKey, "k"),
		telemetry.Int(telemetry.AttrPoints, 1),
		telemetry.Float(telemetry.AttrVG, 0.5),
		telemetry.Bool(telemetry.AttrCacheHit, true),
		telemetry.Dur(telemetry.FieldDurNS, time.Second),
	)
	lg.Log(telemetry.LogEventJob, telemetry.String(telemetry.FieldTrace, sp.TraceID()))
	sp2.End()
	sp.End()
}
