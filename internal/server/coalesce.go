// coalesce.go collapses identical concurrent jobs into one engine
// run. A dashboard fan-out or a retrying load balancer routinely
// lands N byte-identical requests in the same instant; the model
// cache already makes them share the built model, but each still paid
// for its own sweep. Here the first request becomes the leader and
// runs the job on its own goroutine, under its own request context;
// followers arriving while it is in flight wait for its Result and
// share it (engine results are immutable once returned). A flight is
// identified by the job's binary coalescing key (key.go), so requests
// coalesce exactly when they are semantically identical — field order
// or whitespace on the wire doesn't matter, any differing parameter
// does. The flight map is keyed by a maphash digest of those bytes;
// the flight keeps the leader's key bytes, and a request joins it only
// when its own key bytes are equal. A digest collision between two
// different jobs just runs the newcomer unshared.
//
// Only buffered requests coalesce. A streamed response is an
// interactive byte stream owned by one connection; sharing it would
// mean buffering it, which is the opposite of streaming.
//
// Cancellation: every engine run belongs to the handler that leads it,
// so it holds that handler's admission slot and ends with that
// request's context — on client disconnect, on the per-request
// deadline, or when the server's drain is over (the request context
// derives from the drain context, see Server.Shutdown). A follower
// whose own context ends answers its own 499 and leaves; the leader's
// run carries on. A run that fails after its leader's context ended
// is orphaned: its error belongs to the leader, not to the job, so its
// waiters do not share it but lead or join a fresh flight. That costs
// one re-run when a leader hangs up while followers wait — the price
// of not detaching every run from its request.
package server

import (
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"sync"

	"cntfet/internal/engine"
	"cntfet/internal/telemetry"
)

// flight is one in-progress engine run.
type flight struct {
	// key is the leader's coalescing key. The leader's buffer outlives
	// the flight: run deletes the flight before it returns, and only
	// then may the leader recycle the buffer.
	key  []byte
	done chan struct{} // closed after res/err/orphaned are set
	res  engine.Result
	err  error
	// orphaned marks a run that failed after its leader's context
	// ended: waiters retry instead of sharing the leader's error.
	orphaned bool
}

// flightGroup deduplicates concurrent identical jobs. The zero value
// is ready.
type flightGroup struct {
	mu      sync.Mutex
	seed    maphash.Seed
	flights map[uint64]*flight // by digest of the key bytes
	// beforeRun, when set (tests only), runs on the leader's goroutine
	// just before its engine run starts.
	beforeRun func(ctx context.Context)
}

// run executes req, sharing the result with any concurrent request
// whose coalescing key equals key. The caller keeps key unchanged
// until run returns. coalesced reports whether the result came from a
// flight another request led.
func (g *flightGroup) run(ctx context.Context, key []byte, req engine.Request) (res engine.Result, coalesced bool, err error) {
	reg := telemetry.Default()
	for {
		g.mu.Lock()
		if g.flights == nil {
			g.flights = map[uint64]*flight{}
			g.seed = maphash.MakeSeed()
		}
		h := maphash.Bytes(g.seed, key)
		f := g.flights[h]
		if f == nil {
			f = &flight{key: key, done: make(chan struct{})}
			g.flights[h] = f
			g.mu.Unlock()
			reg.Counter(telemetry.KeyServerCoalesceMisses).Inc()
			if g.beforeRun != nil {
				g.beforeRun(ctx)
			}
			res, err := engine.Run(ctx, req)
			g.mu.Lock()
			// Delete before close so a request arriving after completion
			// starts fresh instead of reading a finished flight.
			delete(g.flights, h)
			f.res, f.err = res, err
			f.orphaned = err != nil && ctx.Err() != nil
			f.key = nil
			g.mu.Unlock()
			close(f.done)
			return res, false, err
		}
		if !bytes.Equal(f.key, key) {
			// Another job holds this digest: run unshared.
			g.mu.Unlock()
			reg.Counter(telemetry.KeyServerCoalesceMisses).Inc()
			res, err := engine.Run(ctx, req)
			return res, false, err
		}
		g.mu.Unlock()
		reg.Counter(telemetry.KeyServerCoalesceHits).Inc()
		select {
		case <-f.done:
			if !f.orphaned {
				return f.res, true, f.err
			}
			if ctx.Err() == nil {
				continue // the leader hung up; run the job afresh
			}
		case <-ctx.Done():
		}
		return engine.Result{}, true, fmt.Errorf("server: %w: request abandoned while coalesced: %w", engine.ErrCanceled, ctx.Err())
	}
}
