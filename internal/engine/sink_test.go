package engine

import (
	"context"
	"errors"
	"testing"

	"cntfet/internal/fettoy"
	"cntfet/internal/sweep"
	"cntfet/internal/units"
)

// collectSink buffers every event, optionally failing after a number
// of row deliveries.
type collectSink struct {
	rows    []RowEvent
	mcs     []MCEvent
	failAt  int // fail when len(rows) reaches failAt (0 = never)
	failErr error
}

func (s *collectSink) Emit(ev Event) error {
	if ev.Row != nil {
		if s.failAt > 0 && len(s.rows) >= s.failAt {
			return s.failErr
		}
		s.rows = append(s.rows, *ev.Row)
	}
	if ev.MC != nil {
		s.mcs = append(s.mcs, *ev.MC)
	}
	return nil
}

// TestSinkFamilyBitForBit is the tentpole equivalence check at the
// engine layer: at one worker and at several, the rows a sink receives
// are bit-identical, in the same order, to the buffered Result.Family
// and to the per-point sweep.Trace family — and the streamed Result
// carries no family (bounded memory).
func TestSinkFamilyBitForBit(t *testing.T) {
	_, fast := buildPair(t, fettoy.Default())
	vgs := units.Linspace(0.3, 0.6, 7)
	vds := units.Linspace(0, 0.6, 31)
	traced := make([]sweep.Curve, len(vgs))
	for i, vg := range vgs {
		c, err := sweep.Trace(fast, vg, vds)
		if err != nil {
			t.Fatal(err)
		}
		traced[i] = c
	}
	for _, workers := range []int{1, 3} {
		base := Request{Kind: FamilySweep, Model: fast, Gates: vgs, Drains: vds, Workers: workers}
		buffered, err := Run(context.Background(), base)
		if err != nil {
			t.Fatal(err)
		}
		sameFamilies(t, "buffered", buffered.Family, traced)
		sink := &collectSink{}
		streamReq := base
		streamReq.Sink = sink
		streamed, err := Run(context.Background(), streamReq)
		if err != nil {
			t.Fatal(err)
		}
		if streamed.Family != nil {
			t.Fatalf("workers %d: streamed Result still buffers %d curves", workers, len(streamed.Family))
		}
		if len(sink.rows) != len(buffered.Family) {
			t.Fatalf("workers %d: %d rows streamed, want %d", workers, len(sink.rows), len(buffered.Family))
		}
		for i, ev := range sink.rows {
			if ev.Index != i || ev.Ref {
				t.Fatalf("workers %d: row %d arrived as %+v", workers, i, ev)
			}
			want := buffered.Family[i]
			if ev.Curve.VG != want.VG { //lint:allow floatcmp bit-for-bit equivalence is the contract
				t.Fatalf("workers %d row %d: VG %g vs %g", workers, i, ev.Curve.VG, want.VG)
			}
			for j := range want.IDS {
				if ev.Curve.IDS[j] != want.IDS[j] { //lint:allow floatcmp bit-for-bit equivalence is the contract
					t.Fatalf("workers %d row %d point %d: %g vs %g", workers, i, j, ev.Curve.IDS[j], want.IDS[j])
				}
			}
		}
	}
}

// TestSinkFailureClassifiesCanceled checks the error contract: a
// refusing sink aborts the job and Run reports it as a cancellation
// carrying ErrSinkClosed and the sink's own error.
func TestSinkFailureClassifiesCanceled(t *testing.T) {
	_, fast := buildPair(t, fettoy.Default())
	gone := errors.New("client went away")
	sink := &collectSink{failAt: 2, failErr: gone}
	_, err := Run(context.Background(), Request{
		Kind:   FamilySweep,
		Model:  fast,
		Gates:  units.Linspace(0.3, 0.6, 7),
		Drains: units.Linspace(0, 0.6, 11),
		Sink:   sink,
	})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, ErrSinkClosed) || !errors.Is(err, gone) {
		t.Fatalf("chain lost the sink diagnostics: %v", err)
	}
	if len(sink.rows) != 2 {
		t.Fatalf("%d rows delivered before abort, want 2", len(sink.rows))
	}
}

// TestSinkRMSCompare checks the comparison job's stream: reference
// rows (Ref: true) in gate order, then model rows, with the buffered
// result untouched.
func TestSinkRMSCompare(t *testing.T) {
	ref, fast := buildPair(t, fettoy.Default())
	vgs := units.Linspace(0.3, 0.5, 3)
	vds := units.Linspace(0, 0.6, 13)
	sink := &collectSink{}
	res, err := Run(context.Background(), Request{
		Kind: RMSCompare, Model: fast, Ref: ref,
		Gates: vgs, Drains: vds, Workers: 1, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Family) != len(vgs) || len(res.RefFamily) != len(vgs) || len(res.RMSPercent) != len(vgs) {
		t.Fatalf("buffered comparison payload degenerate: %d/%d/%d", len(res.Family), len(res.RefFamily), len(res.RMSPercent))
	}
	if len(sink.rows) != 2*len(vgs) {
		t.Fatalf("%d rows streamed, want %d", len(sink.rows), 2*len(vgs))
	}
	for i, ev := range sink.rows {
		wantRef := i < len(vgs)
		wantIdx := i % len(vgs)
		if ev.Ref != wantRef || ev.Index != wantIdx {
			t.Fatalf("row %d arrived as ref=%v idx=%d, want ref=%v idx=%d", i, ev.Ref, ev.Index, wantRef, wantIdx)
		}
	}
	// A precomputed reference must stream the same sequence.
	sink2 := &collectSink{}
	res2, err := Run(context.Background(), Request{
		Kind: RMSCompare, Model: fast, RefFamily: res.RefFamily,
		Gates: vgs, Drains: vds, Workers: 1, Sink: sink2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink2.rows) != 2*len(vgs) {
		t.Fatalf("precomputed reference streamed %d rows, want %d", len(sink2.rows), 2*len(vgs))
	}
	for i := range res2.RMSPercent {
		if res2.RMSPercent[i] != res.RMSPercent[i] { //lint:allow floatcmp same grid, same models, same arithmetic
			t.Fatalf("gate %d: RMS differs between swept and precomputed reference", i)
		}
	}
}

// TestSinkMonteCarlo checks the study stream: monotone checkpoints
// ending at the full sample count, with the buffered statistics
// unchanged by emission.
func TestSinkMonteCarlo(t *testing.T) {
	buffered, err := Run(context.Background(), Request{
		Kind: MonteCarlo, Device: fettoy.Default(),
		Bias:    fettoy.Bias{VG: 0.5, VD: 0.4},
		Samples: 50, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := &collectSink{}
	streamed, err := Run(context.Background(), Request{
		Kind: MonteCarlo, Device: fettoy.Default(),
		Bias:    fettoy.Bias{VG: 0.5, VD: 0.4},
		Samples: 50, Seed: 7, Sink: sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(sink.mcs) == 0 {
		t.Fatal("no Monte Carlo checkpoints streamed")
	}
	prev := 0
	for _, ev := range sink.mcs {
		if ev.Done <= prev || ev.Total != 50 {
			t.Fatalf("checkpoint out of order: %+v after Done=%d", ev, prev)
		}
		prev = ev.Done
	}
	if prev != 50 {
		t.Fatalf("final checkpoint at %d samples, want 50", prev)
	}
	for i := range buffered.MC.Samples {
		if buffered.MC.Samples[i] != streamed.MC.Samples[i] { //lint:allow floatcmp emission must not perturb the draws
			t.Fatalf("sample %d differs between buffered and streamed runs", i)
		}
	}
}

var _ Sink = SinkFunc(nil)

// TestSinkFuncAdapter pins the function adapter.
func TestSinkFuncAdapter(t *testing.T) {
	n := 0
	s := SinkFunc(func(Event) error { n++; return nil })
	if err := s.Emit(Event{Row: &RowEvent{Curve: sweep.Curve{}}}); err != nil || n != 1 {
		t.Fatalf("adapter broken: n=%d err=%v", n, err)
	}
}
