package main

import (
	"errors"
	"math"
	"testing"

	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// errEvery fails on every n-th VDS value (by value match).
type errEvery struct{ n int }

func (e errEvery) IDS(b fettoy.Bias) (float64, error) {
	if int(math.Round(b.VD*10))%e.n == 0 {
		return 0, errors.New("bad point")
	}
	return b.VG * b.VD, nil
}

// TestFamilyLegacyCountsAllErrors checks that the legacy scheduler
// keeps the library scheduler's accounting: every failed point lands
// in sweep.errors, every success in sweep.points, with the telemetry
// gate off.
func TestFamilyLegacyCountsAllErrors(t *testing.T) {
	telemetry.Disable()
	reg := telemetry.Default()
	mark := reg.CounterMark(nil)
	vds := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6} // 0.2, 0.4, 0.6 fail
	if _, err := familyLegacy(errEvery{n: 2}, []float64{1, 2}, vds, 3); err == nil {
		t.Fatal("errors swallowed")
	}
	d := reg.CounterDelta(mark)
	if got := d["sweep.errors"]; got != 6 {
		t.Fatalf("sweep.errors advanced by %d, want 6", got)
	}
	if got := d["sweep.points"]; got != 6 {
		t.Fatalf("sweep.points advanced by %d, want 6 successes", got)
	}
}
