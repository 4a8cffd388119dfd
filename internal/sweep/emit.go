package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"cntfet/internal/device"
	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// Collect returns an emit callback that appends each row to *fam —
// the buffered form of FamilyParallelTo. Rows arrive in gate order, so
// *fam ends up indexed like vgs.
func Collect(fam *[]Curve) func(gi int, c Curve) error {
	return func(_ int, c Curve) error {
		*fam = append(*fam, c)
		return nil
	}
}

// rowEmitter serialises in-order row delivery out of the scheduler's
// out-of-order chunk completion. Workers report finished chunks; when
// every point of the frontier row (the lowest unemitted gate index)
// has been attempted, the row is emitted under the mutex — which
// doubles as backpressure: while one worker is blocked writing a row
// to a slow consumer, the others keep solving, but no further rows
// leave. Emitted slots are cleared, so a streaming consumer that drops
// rows after use keeps only the not-yet-emitted rows resident — one
// row at one worker, which allocates rows on their first chunk. A row
// containing numerical errors halts emission (the
// sweep is going to fail; a consumer must not see rows past the first
// bad one) without stopping the workers, which still drain to count
// every failure.
type rowEmitter struct {
	mu        sync.Mutex
	remaining []int // points not yet attempted, per row
	bad       []bool
	out       []Curve
	next      int // frontier: first row not yet emitted
	emit      func(gi int, c Curve) error
	failed    error // first emit error; sticky
	stopped   bool  // a bad row reached the frontier
}

func newRowEmitter(rows, rowLen int, emit func(gi int, c Curve) error) *rowEmitter {
	e := &rowEmitter{
		remaining: make([]int, rows),
		bad:       make([]bool, rows),
		out:       make([]Curve, rows),
		emit:      emit,
	}
	for i := range e.remaining {
		e.remaining[i] = rowLen
	}
	return e
}

// newRow allocates the result curve of one gate voltage.
func newRow(vg float64, vds []float64) Curve {
	return Curve{VG: vg, VDS: append([]float64(nil), vds...), IDS: make([]float64, len(vds))}
}

// complete records n attempted points (successes and failures alike)
// against row gi, advances the emission frontier, and returns the
// first emit error so the calling worker can abandon the task queue.
// It sits on the per-chunk hot path, so it is held to the kernel
// allocation budget (the emit callback itself is the caller's).
//
//perf:zeroalloc
func (e *rowEmitter) complete(gi, n, errs int) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if errs > 0 {
		e.bad[gi] = true
	}
	e.remaining[gi] -= n
	if e.failed != nil {
		return e.failed
	}
	for !e.stopped && e.next < len(e.out) && e.remaining[e.next] == 0 {
		if e.bad[e.next] {
			e.stopped = true
			break
		}
		//lint:allow zeroalloc the emit callback's allocation budget belongs to its owner, not this scheduler
		if err := e.emit(e.next, e.out[e.next]); err != nil {
			e.failed = err
			return err
		}
		e.out[e.next] = Curve{}
		e.next++
	}
	return nil
}

func (e *rowEmitter) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failed
}

// FamilyParallelTo is the family scheduler: it evaluates one IDS(VDS)
// curve per gate voltage on the shared vds grid and hands each
// completed row to emit, always in gate order (index gi into vgs) even
// though workers finish chunks out of order. Ownership of the emitted
// Curve (its VDS and IDS slices) transfers to the callback. Buffered
// callers pass Collect.
//
// Scheduling: tasks are [lo, hi) index blocks of one VDS row, drained
// by worker goroutines from a buffered channel, so the per-point cost
// is the solve itself rather than a channel hand-off. workers <= 0
// selects GOMAXPROCS. One worker runs whole rows as its chunks, so the
// reference model's warm-start chain never restarts mid-row and the
// output is bit-for-bit a whole-row IDSBatch; more workers split the
// grid into about four chunks per worker. When the model exposes
// device.BatchSolver each chunk goes to the row kernel (the zero-alloc
// closed form for the piecewise family, the warm-started table Newton
// for the reference) through a per-worker scratch buffer; otherwise
// points run one by one with warm-start continuation when the model
// supports it (device.WarmStarter). Both library models are safe for
// concurrent use after construction.
//
// Cancellation is honoured per chunk on the batched path and per point
// otherwise: every goroutine is joined before return, and the error
// wraps the context's cause so callers can tell user abort from
// numerical failure. sweep.points counts exactly the points that
// completed before the abort. A non-nil error from emit stops every
// worker at its next chunk boundary and is returned unchanged (not
// wrapped) unless the context was also canceled, which takes
// precedence — so callers can classify a failing sink, typically a
// disconnected client, apart from a failing solve.
//
// Numerical errors do not abort the sweep: the first one (in order of
// discovery) is returned after all workers drain, and every failed
// point counts into sweep.errors regardless of the telemetry gate, so
// partial failures are never silent.
func FamilyParallelTo(ctx context.Context, m device.Solver, vgs, vds []float64, workers int, emit func(gi int, c Curve) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Chunks never span rows, so a row's completion is observable at
	// chunk granularity. About four chunks per worker balance load
	// without paying a hand-off per point; one worker takes whole rows.
	span := len(vds)
	if workers > 1 {
		span = (len(vgs)*len(vds) + 4*workers - 1) / (4 * workers)
		if span < 8 {
			span = 8
		}
		if span > len(vds) {
			span = len(vds)
		}
	}
	if span < 1 {
		span = 1
	}

	type chunk struct{ gi, lo, hi int }
	perRow := (len(vds) + span - 1) / span
	tasks := make(chan chunk, perRow*len(vgs))
	for gi := range vgs {
		for lo := 0; lo < len(vds); lo += span {
			hi := lo + span
			if hi > len(vds) {
				hi = len(vds)
			}
			tasks <- chunk{gi, lo, hi}
		}
	}
	close(tasks)

	// First-error capture without a per-point mutex: the winning worker
	// records once, later errors only bump the shared counter.
	var firstErr error
	var errOnce sync.Once

	em := newRowEmitter(len(vgs), len(vds), emit)
	if workers > 1 {
		// Several workers may start chunks of one row at once, so every
		// row is allocated before they start. A lone worker allocates
		// each row on its first chunk instead: a streamed sweep then
		// holds one unemitted row. Either way a worker reads its row's
		// slot before reporting the chunk, and the emitter clears the
		// slot only after the row's last report, under its mutex.
		for gi, vg := range vgs {
			em.out[gi] = newRow(vg, vds)
		}
	}

	ws, warm := m.(device.WarmStarter)
	bs, batch := m.(device.BatchSolver)
	done := ctxDone(ctx)
	on := telemetry.On()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:allow goroutine cancellation is honoured per chunk through the captured done channel (ctxDone(ctx) above)
		go func(w int) {
			defer wg.Done()
			var points, errs int64
			// Per-worker bias scratch for the batched chunk path: one
			// allocation per worker for the whole sweep, sized to the
			// largest chunk. Lazy so non-batch models pay nothing.
			var biasBuf []fettoy.Bias
			if on {
				defer workerTimer(w).Start()()
			}
			defer func() { countPoints(on, w, points, errs) }()
		drain:
			for ck := range tasks {
				// One span per chunk — the scheduler's work unit — keeps
				// tracing cost off the per-point path while still showing
				// which worker ran which run of points. Nil (free) while
				// tracing is off.
				_, sp := telemetry.StartSpan(ctx, telemetry.SpanSweepChunk)
				chunkPoints, chunkErrs := points, errs
				if em.out[ck.gi].IDS == nil {
					em.out[ck.gi] = newRow(vgs[ck.gi], vds)
				}
				ids := em.out[ck.gi].IDS
				if batch {
					// Batched chunk path: hand the whole [lo, hi) run to
					// the model's row kernel. Cancellation is honoured per
					// chunk here — a chunk is at most one VDS row.
					select {
					case <-done:
						endChunkSpan(sp, w, vgs[ck.gi], points-chunkPoints)
						break drain
					default:
					}
					if biasBuf == nil {
						biasBuf = make([]fettoy.Bias, span)
					}
					n := ck.hi - ck.lo
					for vi := ck.lo; vi < ck.hi; vi++ {
						biasBuf[vi-ck.lo] = fettoy.Bias{VG: vgs[ck.gi], VD: vds[vi]}
					}
					if err := bs.IDSBatch(biasBuf[:n], ids[ck.lo:ck.hi]); err == nil {
						points += int64(n)
						endChunkSpan(sp, w, vgs[ck.gi], points-chunkPoints)
						if em.complete(ck.gi, n, 0) != nil {
							break drain
						}
						continue
					}
					// The batch failed somewhere in the run: fall through
					// to the per-point loop, which redoes the chunk to
					// attribute the failing point exactly and keep the
					// healthy neighbours — batch errors stay as non-silent
					// and non-aborting as per-point ones.
				}
				guess := math.NaN()
				for vi := ck.lo; vi < ck.hi; vi++ {
					select {
					case <-done:
						// The tasks channel is pre-filled and closed, so
						// abandoning the range leaves no blocked sender.
						endChunkSpan(sp, w, vgs[ck.gi], points-chunkPoints)
						break drain
					default:
					}
					b := fettoy.Bias{VG: vgs[ck.gi], VD: vds[vi]}
					var v float64
					var err error
					if warm {
						v, guess, err = ws.IDSFrom(b, guess)
					} else {
						v, err = m.IDS(b)
					}
					if err != nil {
						errs++
						errOnce.Do(func() {
							firstErr = fmt.Errorf("sweep: VG=%g VDS=%g: %w", b.VG, b.VD, err)
						})
						guess = math.NaN()
						continue
					}
					points++
					ids[vi] = v
				}
				endChunkSpan(sp, w, vgs[ck.gi], points-chunkPoints)
				attempted := int(points - chunkPoints + errs - chunkErrs)
				if em.complete(ck.gi, attempted, int(errs-chunkErrs)) != nil {
					break drain
				}
			}
		}(w)
	}
	wg.Wait()
	if ctx != nil && ctx.Err() != nil {
		return canceledErr(ctx)
	}
	if err := em.err(); err != nil {
		return err
	}
	return firstErr
}
