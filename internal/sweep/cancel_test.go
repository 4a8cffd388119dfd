package sweep

import (
	"context"
	"errors"
	"testing"

	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// cancelAfterRow is a batch solver that cancels its own context while
// evaluating the first row, so the per-row cancellation check in
// FamilyBatch fires deterministically before the second row.
type cancelAfterRow struct {
	cancel context.CancelFunc
	rows   int
}

func (c *cancelAfterRow) IDS(b fettoy.Bias) (float64, error) { return b.VG * b.VD, nil }

func (c *cancelAfterRow) IDSBatch(bias []fettoy.Bias, out []float64) error {
	c.rows++
	for i, b := range bias {
		out[i] = b.VG * b.VD
	}
	c.cancel()
	return nil
}

func TestFamilyBatchCancelBetweenRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := &cancelAfterRow{cancel: cancel}
	_, err := FamilyBatch(ctx, m, []float64{0.1, 0.2, 0.3}, []float64{0, 0.3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if m.rows != 1 {
		t.Fatalf("evaluated %d rows after cancellation, want 1", m.rows)
	}
}

// cancelSelf is a plain solver that cancels its context on the n-th
// point, for the serial and parallel per-point checks.
type cancelSelf struct {
	cancel context.CancelFunc
	after  int
	calls  int
}

func (c *cancelSelf) IDS(b fettoy.Bias) (float64, error) {
	c.calls++
	if c.calls == c.after {
		c.cancel()
	}
	return b.VG * b.VD, nil
}

func TestFamilySerialCancelBetweenRows(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m := &cancelSelf{cancel: cancel, after: 2} // cancels inside row 1
	_, err := Family(ctx, m, []float64{0.1, 0.2, 0.3}, []float64{0, 0.3})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	if m.calls > 2 {
		t.Fatalf("evaluated %d points after cancellation, want the current row only", m.calls)
	}
}

// TestFamilyParallelCancelCountsConsistently: after a mid-sweep
// cancellation, sweep.points must equal the successful evaluations
// that actually ran — the deferred per-worker flush must not lose or
// double-count abandoned work.
func TestFamilyParallelCancelCountsConsistently(t *testing.T) {
	telemetry.Disable()
	reg := telemetry.Default()
	mark := reg.CounterMark(nil)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Single worker makes the evaluation count deterministic: the one
	// worker cancels on its 3rd point, then abandons the rest.
	m := &cancelSelf{cancel: cancel, after: 3}
	_, err := FamilyParallel(ctx, m, []float64{0.1, 0.2}, []float64{0, 0.2, 0.4, 0.6}, 1)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in chain, got %v", err)
	}
	got := reg.CounterDelta(mark)["sweep.points"]
	if got != int64(m.calls) {
		t.Fatalf("sweep.points advanced by %d, but %d solves ran", got, m.calls)
	}
	if m.calls >= 8 {
		t.Fatal("cancellation did not abandon the remaining points")
	}
}
