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
// registry under the real FamilyParallelTo concurrency pattern. Run with
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

	out, err := family(context.Background(), noisySource{}, vgs, vds, workers)
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

// TestWorkerInstrumentsCached: a worker's attribution timer and points
// counter are the default registry's own, and once created they are
// served from the cache without formatting or allocating.
func TestWorkerInstrumentsCached(t *testing.T) {
	reg := telemetry.Default()
	if workerPoints(5) != reg.Counter(fmt.Sprintf(telemetry.KeySweepWorkerPointsFmt, 5)) {
		t.Fatal("cached points counter is not the registry's")
	}
	if workerTimer(5) != reg.Timer(fmt.Sprintf(telemetry.KeySweepWorkerTimeFmt, 5)) {
		t.Fatal("cached timer is not the registry's")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		workerPoints(5)
		workerTimer(5)
	}); allocs != 0 {
		t.Fatalf("cached lookups allocate %.1f times", allocs)
	}
}
