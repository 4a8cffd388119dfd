package engine

import (
	"errors"
	"fmt"

	"cntfet/internal/sweep"
)

// Sink receives a job's results incrementally while the job runs —
// one event per completed sweep row, one per Monte Carlo statistics
// checkpoint — so a front-end can forward them (the streaming NDJSON
// responses of internal/server) instead of waiting for the buffered
// Result. Set it on Request.Sink; a nil Sink is the buffered path.
//
// Contract:
//   - Events arrive in result order (rows by ascending gate index,
//     reference rows before model rows in an RMSCompare; Monte Carlo
//     partials by ascending Done) at any Workers — the scheduler
//     reorders internally before emitting.
//   - Ownership of an emitted row's slices transfers to the sink, and
//     rows are never recycled. The rows of one family share one
//     read-only VDS grid (the sweep's own copy of Request.Drains); each
//     row owns its IDS.
//   - The rows streamed for a FamilySweep are bit-for-bit the curves
//     the buffered Result.Family would hold. Result.Family stays nil
//     when a Sink is set and emitted rows are released, so the job
//     holds only rows not yet emitted: one row at Workers: 1 (rows are
//     allocated on their first chunk there), a shrinking tail of the
//     family otherwise (RMSCompare still buffers both families — the
//     RMS comparison needs them).
//   - Emit is called from the job's goroutines (the sweep scheduler
//     calls it under an internal lock, never concurrently) and blocks the
//     emitting worker: a slow consumer is backpressure, not a buffer.
//   - A non-nil error from Emit aborts the job promptly; Run returns a
//     JobError classified as ErrCanceled whose chain carries
//     ErrSinkClosed and the sink's own error.
type Sink interface {
	Emit(Event) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Event) error

// Emit implements Sink.
func (f SinkFunc) Emit(ev Event) error { return f(ev) }

// Event is one incremental result. Exactly one field is non-nil.
type Event struct {
	// Row is a completed sweep row (FamilySweep, RMSCompare).
	Row *RowEvent
	// MC is a Monte Carlo running-statistics checkpoint.
	MC *MCEvent
}

// RowEvent is one finished IDS(VDS) curve. Index is the row's position
// in the request's Gates grid; Ref marks the reference family of an
// RMSCompare (reference rows stream before model rows). Ownership of
// the Curve's slices transfers to the sink; its VDS is the read-only
// grid every row of the family shares.
type RowEvent struct {
	Index int
	Ref   bool
	Curve sweep.Curve
}

// MCEvent mirrors variation.Partial: running mean and standard
// deviation over the first Done of Total samples.
type MCEvent struct {
	Done, Total int
	Mean, Std   float64
}

// ErrSinkClosed marks a job aborted because its Sink refused an event
// — typically a streaming client that disconnected mid-response. Such
// failures classify as ErrCanceled: the consumer gave up, the job did
// not fail.
var ErrSinkClosed = errors.New("engine: sink closed")

// rowEmit adapts a Sink to the sweep layer's emit callback, wrapping
// sink failures in ErrSinkClosed so they classify as cancellation.
func rowEmit(s Sink, ref bool) func(int, sweep.Curve) error {
	return func(gi int, c sweep.Curve) error {
		if err := s.Emit(Event{Row: &RowEvent{Index: gi, Ref: ref, Curve: c}}); err != nil {
			return fmt.Errorf("%w: %w", ErrSinkClosed, err)
		}
		return nil
	}
}
