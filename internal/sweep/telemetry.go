package sweep

import (
	"context"
	"fmt"

	"cntfet/internal/telemetry"
)

// countPoints is the single recording path for one worker's point
// accounting. Totals (sweep.points, sweep.errors) are recorded
// unconditionally — partial failures must never be silent — while the
// per-worker attribution counter stays behind the telemetry gate.
func countPoints(reg *telemetry.Registry, gateOn bool, worker int, points, errs int64) {
	if points != 0 {
		reg.Counter(telemetry.KeySweepPoints).Add(points)
	}
	if errs != 0 {
		reg.Counter(telemetry.KeySweepErrors).Add(errs)
	}
	if gateOn && points != 0 {
		reg.Counter(fmt.Sprintf(telemetry.KeySweepWorkerPointsFmt, worker)).Add(points)
	}
}

// endChunkSpan finishes one sweep chunk span with its worker
// attribution. points is the number of bias points the chunk actually
// completed (a canceled chunk reports the prefix it finished). A nil
// span — tracing off — makes this free.
func endChunkSpan(sp *telemetry.Span, worker int, vg float64, points int64) {
	if sp == nil {
		return
	}
	sp.Set(
		telemetry.Int(telemetry.AttrWorker, int64(worker)),
		telemetry.Float(telemetry.AttrVG, vg),
		telemetry.Int(telemetry.AttrPoints, points),
	)
	sp.End()
}

// canceledErr wraps the context's error so engine-level callers can
// classify the failure as a user abort (errors.Is against
// context.Canceled / context.DeadlineExceeded keeps working) rather
// than a numerical one.
func canceledErr(ctx context.Context) error {
	return fmt.Errorf("sweep: canceled: %w", context.Cause(ctx))
}

// ctxDone returns the context's done channel, tolerating a nil context
// (treated as non-cancellable, like context.Background()).
func ctxDone(ctx context.Context) <-chan struct{} {
	if ctx == nil {
		return nil
	}
	return ctx.Done()
}
