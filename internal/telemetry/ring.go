package telemetry

// ring is a fixed-capacity buffer that, once full, overwrites its
// oldest entry and counts the overwrite as dropped. It backs Tracer; it
// has no lock of its own, so the owner guards every call with its
// mutex.
type ring[T any] struct {
	buf     []T
	next    int // oldest entry, the next one overwritten; 0 until full
	dropped int64
}

// newRing returns an empty ring holding at most capacity entries
// (minimum 1).
func newRing[T any](capacity int) ring[T] {
	return ring[T]{buf: make([]T, 0, max(capacity, 1))}
}

func (r *ring[T]) push(v T) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.next] = v
	r.next = (r.next + 1) % cap(r.buf)
	r.dropped++
}

// items copies the retained entries out, oldest first.
func (r *ring[T]) items() []T {
	out := make([]T, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	return append(out, r.buf[:r.next]...)
}

// reset empties the ring; the drop count survives.
func (r *ring[T]) reset() {
	r.buf = r.buf[:0]
	r.next = 0
}
