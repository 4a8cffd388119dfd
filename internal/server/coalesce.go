// coalesce.go collapses identical concurrent jobs into one engine
// run. A dashboard fan-out or a retrying load balancer routinely
// lands N byte-identical requests in the same instant; the model
// cache already makes them share the built model, but each still paid
// for its own sweep. Here the first request becomes the leader and
// actually runs; followers arriving while it is in flight wait for
// its Result and share it (engine results are immutable once
// returned). The flight is keyed by the canonical re-encoding of the
// decoded JobRequest, so requests coalesce exactly when they are
// semantically identical — field order or whitespace on the wire
// doesn't matter, any differing parameter does.
//
// Only buffered requests coalesce. A streamed response is an
// interactive byte stream owned by one connection; sharing it would
// mean buffering it, which is the opposite of streaming.
//
// Cancellation: the leader's engine run is detached from the leader's
// own request context (a follower must not lose its result because
// the leader hung up) and is cancelled when every waiter has gone —
// or when the server's drain context ends, so a flight cannot outlive
// a graceful shutdown whose budget expired. A waiter that disconnects
// early answers its own 499 and leaves; the last one out cancels the
// flight.
package server

import (
	"context"
	"fmt"
	"sync"

	"cntfet/internal/engine"
	"cntfet/internal/telemetry"
)

// flight is one in-progress engine run plus everyone waiting on it.
type flight struct {
	// req is the job the leader's goroutine runs. Held here rather than
	// captured by that goroutine, so it rides the flight's allocation.
	req     engine.Request
	done    chan struct{} // closed after res/err are set
	res     engine.Result
	err     error
	waiters int
	cancel  context.CancelFunc
	// abandoned marks a flight whose last waiter left before it
	// finished: its run context is cancelled and its result (an
	// ErrCanceled) must not be joined by new arrivals.
	abandoned bool
}

// flightGroup deduplicates concurrent identical jobs. The zero value
// is ready.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
}

// run executes req, sharing the result with any concurrent identical
// request. coalesced reports whether this caller joined an existing
// flight rather than leading one. drain bounds the detached flight's
// lifetime: when it ends (the server finished draining, successfully
// or over budget), any still-running flight is cancelled. A nil drain
// leaves the flight bounded only by its waiters.
func (g *flightGroup) run(ctx, drain context.Context, key string, req engine.Request) (res engine.Result, coalesced bool, err error) {
	reg := telemetry.Default()
	g.mu.Lock()
	if g.flights == nil {
		g.flights = map[string]*flight{}
	}
	f := g.flights[key]
	if f != nil && !f.abandoned {
		f.waiters++
		g.mu.Unlock()
		reg.Counter(telemetry.KeyServerCoalesceHits).Inc()
		res, err := g.wait(ctx, f)
		return res, true, err
	}
	// Lead a new flight (possibly replacing an abandoned one — its
	// goroutine deletes itself conditionally, so the replacement wins).
	// The run context keeps the leader's trace and span values but not
	// its cancellation: followers outlive the leader's connection. The
	// drain context caps the detachment — without it, a flight whose
	// waiters were force-closed by an over-budget shutdown would keep
	// computing for nobody.
	jctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	stop := func() bool { return true }
	if drain != nil {
		stop = context.AfterFunc(drain, cancel)
	}
	f = &flight{req: req, done: make(chan struct{}), waiters: 1, cancel: cancel}
	g.flights[key] = f
	g.mu.Unlock()
	reg.Counter(telemetry.KeyServerCoalesceMisses).Inc()
	go func() {
		res, err := engine.Run(jctx, f.req)
		stop()
		g.mu.Lock()
		// Delete before close so a request arriving after completion
		// starts fresh instead of reading a stale flight. Conditional:
		// an abandoned flight may already have been replaced.
		if g.flights[key] == f {
			delete(g.flights, key)
		}
		f.res, f.err = res, err
		g.mu.Unlock()
		close(f.done)
		cancel()
	}()
	res, err = g.wait(ctx, f)
	return res, false, err
}

// wait blocks until the flight completes or this waiter's own context
// ends. The last waiter to leave an unfinished flight abandons it.
func (g *flightGroup) wait(ctx context.Context, f *flight) (engine.Result, error) {
	select {
	case <-f.done:
		return f.res, f.err
	case <-ctx.Done():
	}
	g.mu.Lock()
	f.waiters--
	last := f.waiters == 0
	if last {
		f.abandoned = true
	}
	g.mu.Unlock()
	if last {
		// Nobody wants the answer any more; stop computing it. The
		// flight's goroutine still runs to completion of the cancel and
		// removes the map entry.
		f.cancel()
	}
	return engine.Result{}, fmt.Errorf("server: %w: request abandoned while coalesced: %w", engine.ErrCanceled, ctx.Err())
}
