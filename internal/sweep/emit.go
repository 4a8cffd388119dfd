package sweep

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cntfet/internal/device"
	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// Collect returns an emit callback that appends each row to *fam —
// the buffered form of FamilyParallelTo. Rows arrive in gate order, so
// *fam ends up indexed like vgs, and every row's VDS is the family's
// one shared, read-only drain grid (see Curve).
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
	mu      sync.Mutex
	rows    []rowSlot
	next    int // frontier: first row not yet emitted
	emit    func(gi int, c Curve) error
	failed  error // first emit error; sticky
	stopped bool  // a bad row reached the frontier
}

// rowSlot is the emitter's state of one gate row.
type rowSlot struct {
	remaining int   // points not yet attempted
	bad       bool  // a point of the row failed
	c         Curve // the row's result until it is emitted
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
		e.rows[gi].bad = true
	}
	e.rows[gi].remaining -= n
	if e.failed != nil {
		return e.failed
	}
	for !e.stopped && e.next < len(e.rows) && e.rows[e.next].remaining == 0 {
		row := &e.rows[e.next]
		if row.bad {
			e.stopped = true
			break
		}
		//lint:allow zeroalloc the emit callback's allocation budget belongs to its owner, not this scheduler
		if err := e.emit(e.next, row.c); err != nil {
			e.failed = err
			return err
		}
		row.c = Curve{}
		e.next++
	}
	return nil
}

func (e *rowEmitter) err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.failed
}

// familyJob is one FamilyParallelTo call: its inputs, the chunk
// counter the workers claim work from, and the bookkeeping they share.
type familyJob struct {
	ctx  context.Context
	m    device.Solver
	vgs  []float64
	grid []float64 // the family's copy of the drain grid, shared by every row
	on   bool      // telemetry gate, read once per sweep

	// Chunk k covers points [lo, lo+span) of row k/perRow, lo =
	// (k%perRow)·span; next is the first unclaimed k.
	span, perRow int
	chunks       int64
	next         atomic.Int64

	em       rowEmitter
	errOnce  sync.Once
	firstErr error // first numerical error, in order of discovery
	wg       sync.WaitGroup
	// scratch[w] is worker w's bias buffer for the batched chunk path,
	// sized on its first batched chunk and kept across pooled reuse.
	scratch [][]fettoy.Bias
}

// jobPool recycles a sweep's bookkeeping — the job, its row states
// and the workers' bias scratch — across sweeps, so once buffers of
// the family's size exist the scheduler allocates only the curves it
// hands out.
var jobPool = sync.Pool{New: func() any { return new(familyJob) }}

// FamilyParallelTo is the family scheduler: it evaluates one IDS(VDS)
// curve per gate voltage on the shared vds grid and hands each
// completed row to emit, always in gate order (index gi into vgs) even
// though workers finish chunks out of order. Ownership of the emitted
// Curve's IDS transfers to the callback; its VDS is the family's one
// read-only copy of vds, shared by every row (see Curve), so the
// caller may reuse vds once the call returns. Buffered callers pass
// Collect.
//
// Scheduling: tasks are [lo, hi) index blocks of one VDS row, claimed
// in gate-major order from an atomic chunk counter, so the per-point
// cost is the solve itself rather than a hand-off. workers <= 0
// selects GOMAXPROCS; worker 0 runs on the calling goroutine. One
// worker runs whole rows as its chunks, so the reference model's
// warm-start chain never restarts mid-row and the output is bit-for-bit
// a whole-row IDSBatch; more workers split the grid into about four
// chunks per worker. When the model exposes device.BatchSolver each
// chunk goes to the row kernel (the zero-alloc closed form for the
// piecewise family, the warm-started table Newton for the reference)
// through a per-worker scratch buffer kept with the pooled job;
// otherwise points run one by one with warm-start continuation when
// the model supports it (device.WarmStarter). Both library models are
// safe for concurrent use after construction.
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
	span := chunkSpan(workers, len(vgs), len(vds))
	perRow := (len(vds) + span - 1) / span
	j := jobPool.Get().(*familyJob)
	defer j.release()
	j.ctx, j.m, j.vgs, j.on = ctx, m, vgs, telemetry.On()
	j.grid = append(make([]float64, 0, len(vds)), vds...)
	j.span, j.perRow, j.chunks = span, perRow, int64(perRow*len(vgs))
	j.em.emit = emit
	j.em.rows = slices.Grow(j.em.rows[:0], len(vgs))[:len(vgs)]
	j.scratch = slices.Grow(j.scratch, workers)[:workers]
	for gi := range j.em.rows {
		j.em.rows[gi].remaining = len(vds)
	}
	if workers > 1 {
		// Several workers may start chunks of one row at once, so every
		// row is allocated before they start. A lone worker allocates
		// each row on its first chunk instead: a streamed sweep then
		// holds one unemitted row. Either way a worker reads its row's
		// slot before reporting the chunk, and the emitter clears the
		// slot only after the row's last report, under its mutex.
		for gi, vg := range vgs {
			j.em.rows[gi].c = j.newRow(vg)
		}
	}
	j.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		//lint:allow goroutine joined by j.wg below; cancellation is honoured per chunk through ctxDone(ctx) in drain
		go j.spawned(w)
	}
	j.work(0)
	j.wg.Wait()
	if ctx != nil && ctx.Err() != nil {
		return canceledErr(ctx)
	}
	if err := j.em.err(); err != nil {
		return err
	}
	return j.firstErr
}

// release clears the job, dropping every reference it holds, and
// returns it to the pool. Every worker has been joined by then.
func (j *familyJob) release() {
	clear(j.em.rows)
	*j = familyJob{em: rowEmitter{rows: j.em.rows[:0]}, scratch: j.scratch}
	jobPool.Put(j)
}

// chunkSpan returns the points per chunk. Chunks never span rows, so a
// row's completion is observable at chunk granularity. About four
// chunks per worker balance load without paying a hand-off per point;
// one worker takes whole rows.
func chunkSpan(workers, rows, cols int) int {
	span := cols
	if workers > 1 {
		span = (rows*cols + 4*workers - 1) / (4 * workers)
		span = min(max(span, 8), cols)
	}
	return max(span, 1)
}

// newRow allocates the result curve of one gate voltage: its own IDS
// on the family's shared grid. VDS is capped at its length, so an
// append to one row's VDS copies rather than writing into memory the
// other rows share.
func (j *familyJob) newRow(vg float64) Curve {
	n := len(j.grid)
	return Curve{VG: vg, VDS: j.grid[:n:n], IDS: make([]float64, n)}
}

// spawned runs worker w on its own goroutine.
func (j *familyJob) spawned(w int) {
	defer j.wg.Done()
	j.work(w)
}

// work runs one worker to completion and records its point accounting
// and, with telemetry on, its busy time.
func (j *familyJob) work(w int) {
	var begin time.Time
	if j.on {
		begin = time.Now()
	}
	points, errs := j.drain(w)
	countPoints(j.on, w, points, errs)
	if j.on {
		workerTimer(w).Observe(time.Since(begin))
	}
}

// drain claims chunks until none are left, the context ends or the
// emitter fails, and returns the points it completed and failed.
func (j *familyJob) drain(w int) (points, errs int64) {
	ws, warm := j.m.(device.WarmStarter)
	bs, batch := j.m.(device.BatchSolver)
	done := ctxDone(j.ctx)
	for {
		k := j.next.Add(1) - 1
		if k >= j.chunks {
			return points, errs
		}
		gi := int(k) / j.perRow
		lo := int(k) % j.perRow * j.span
		hi := min(lo+j.span, len(j.grid))
		vg := j.vgs[gi]
		// One span per chunk — the scheduler's work unit — keeps
		// tracing cost off the per-point path while still showing
		// which worker ran which run of points. Nil (free) while
		// tracing is off.
		_, sp := telemetry.StartSpan(j.ctx, telemetry.SpanSweepChunk)
		chunkPoints, chunkErrs := points, errs
		row := &j.em.rows[gi]
		if row.c.IDS == nil {
			row.c = j.newRow(vg)
		}
		ids := row.c.IDS
		if batch {
			// Batched chunk path: hand the whole [lo, hi) run to the
			// model's row kernel. Cancellation is honoured per chunk
			// here — a chunk is at most one VDS row.
			select {
			case <-done:
				endChunkSpan(sp, w, vg, points-chunkPoints)
				return points, errs
			default:
			}
			if cap(j.scratch[w]) < j.span {
				j.scratch[w] = make([]fettoy.Bias, j.span)
			}
			b := j.scratch[w][:hi-lo]
			for vi := lo; vi < hi; vi++ {
				b[vi-lo] = fettoy.Bias{VG: vg, VD: j.grid[vi]}
			}
			if err := bs.IDSBatch(b, ids[lo:hi]); err == nil {
				points += int64(hi - lo)
				endChunkSpan(sp, w, vg, points-chunkPoints)
				if j.em.complete(gi, hi-lo, 0) != nil {
					return points, errs
				}
				continue
			}
			// The batch failed somewhere in the run: fall through to the
			// per-point loop, which redoes the chunk to attribute the
			// failing point exactly and keep the healthy neighbours —
			// batch errors stay as non-silent and non-aborting as
			// per-point ones.
		}
		guess := math.NaN()
		for vi := lo; vi < hi; vi++ {
			select {
			case <-done:
				// Abandoning the range leaves nothing blocked: unclaimed
				// chunks simply stay unclaimed.
				endChunkSpan(sp, w, vg, points-chunkPoints)
				return points, errs
			default:
			}
			b := fettoy.Bias{VG: vg, VD: j.grid[vi]}
			var v float64
			var err error
			if warm {
				v, guess, err = ws.IDSFrom(b, guess)
			} else {
				v, err = j.m.IDS(b)
			}
			if err != nil {
				errs++
				j.errOnce.Do(func() {
					j.firstErr = fmt.Errorf("sweep: VG=%g VDS=%g: %w", b.VG, b.VD, err)
				})
				guess = math.NaN()
				continue
			}
			points++
			ids[vi] = v
		}
		endChunkSpan(sp, w, vg, points-chunkPoints)
		attempted := int(points - chunkPoints + errs - chunkErrs)
		if j.em.complete(gi, attempted, int(errs-chunkErrs)) != nil {
			return points, errs
		}
	}
}
