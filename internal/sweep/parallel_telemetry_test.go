package sweep

import (
	"context"
	"fmt"
	"testing"

	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// noisySource is a trivially fast model that itself hammers shared
// registry instruments from every worker, so this test exercises the
// registry under the real FamilyParallel concurrency pattern. Run with
// -race (the Makefile check target does).
type noisySource struct{}

func (noisySource) IDS(b fettoy.Bias) (float64, error) {
	telemetry.Default().Counter("test.noisy.ids").Inc()
	telemetry.Default().Timer("test.noisy.time").Observe(1)
	telemetry.Default().Histogram("test.noisy.vg", []float64{0.2, 0.4}).Observe(b.VG)
	return b.VG * b.VD, nil
}

func TestFamilyParallelHammersTelemetry(t *testing.T) {
	telemetry.Enable()
	defer telemetry.Disable()
	reg := telemetry.Default()
	mark := reg.CounterMark(nil)

	const nvg, nvd, workers = 20, 50, 8
	vgs := make([]float64, nvg)
	for i := range vgs {
		vgs[i] = float64(i) * 0.03
	}
	vds := make([]float64, nvd)
	for i := range vds {
		vds[i] = float64(i) * 0.01
	}

	out, err := FamilyParallel(context.Background(), noisySource{}, vgs, vds, workers)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != nvg {
		t.Fatalf("got %d curves, want %d", len(out), nvg)
	}

	d := reg.CounterDelta(mark)
	total := int64(nvg * nvd)
	if got := d["test.noisy.ids"]; got != total {
		t.Fatalf("model-side counter = %d, want %d", got, total)
	}
	if got := d["sweep.points"]; got != total {
		t.Fatalf("sweep.points = %d, want %d", got, total)
	}
	// Per-worker points must partition the total.
	var perWorker int64
	for w := 0; w < workers; w++ {
		perWorker += d[fmt.Sprintf("sweep.worker.%d.points", w)]
	}
	if perWorker != total {
		t.Fatalf("per-worker points sum to %d, want %d", perWorker, total)
	}
	if got := d["sweep.errors"]; got != 0 {
		t.Fatalf("sweep.errors = %d, want 0", got)
	}
}
