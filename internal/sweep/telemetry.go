package sweep

import (
	"context"
	"fmt"
	"sync"

	"cntfet/internal/telemetry"
)

// countPoints is the single recording path for one worker's point
// accounting. Totals (sweep.points, sweep.errors) are recorded
// unconditionally — partial failures must never be silent — while the
// per-worker attribution counter stays behind the telemetry gate.
func countPoints(gateOn bool, worker int, points, errs int64) {
	reg := telemetry.Default()
	if points != 0 {
		reg.Counter(telemetry.KeySweepPoints).Add(points)
	}
	if errs != 0 {
		reg.Counter(telemetry.KeySweepErrors).Add(errs)
	}
	if gateOn && points != 0 {
		workerPoints(worker).Add(points)
	}
}

// workerInstruments caches each worker index's attribution timer and
// points counter in the default registry, so a worker's names are
// formatted and looked up once per process rather than on every sweep.
// Each instrument is still created on its first use.
var workerInstruments struct {
	mu     sync.Mutex
	timers []*telemetry.Timer
	points []*telemetry.Counter
}

// workerTimer returns worker w's sweep.worker.<w>.time timer.
func workerTimer(w int) *telemetry.Timer {
	workerInstruments.mu.Lock()
	defer workerInstruments.mu.Unlock()
	return cachedInstrument(&workerInstruments.timers, w, func() *telemetry.Timer {
		return telemetry.Default().Timer(fmt.Sprintf(telemetry.KeySweepWorkerTimeFmt, w))
	})
}

// workerPoints returns worker w's sweep.worker.<w>.points counter.
func workerPoints(w int) *telemetry.Counter {
	workerInstruments.mu.Lock()
	defer workerInstruments.mu.Unlock()
	return cachedInstrument(&workerInstruments.points, w, func() *telemetry.Counter {
		return telemetry.Default().Counter(fmt.Sprintf(telemetry.KeySweepWorkerPointsFmt, w))
	})
}

// cachedInstrument returns (*cache)[w], growing the cache and filling
// the entry with mk on first use. The caller holds workerInstruments.mu.
func cachedInstrument[T any](cache *[]*T, w int, mk func() *T) *T {
	if w >= len(*cache) {
		*cache = append(*cache, make([]*T, w+1-len(*cache))...)
	}
	if (*cache)[w] == nil {
		(*cache)[w] = mk()
	}
	return (*cache)[w]
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
