package fettoy

import (
	"math"
	"math/rand"
	"testing"

	"cntfet/internal/units"
)

// fermiInputs draws one kernel call: n Fermi exponentials b with the
// samplers' range [1, e^600] mixed with the edge values they produce
// (0 for u = +Inf, +Inf for a sample the rule does not serve, huge
// values whose product with a overflows), a node weight that is
// sometimes subnormal, a node exponential a from the clamped
// [e^-700, e^700], and accumulators that are zero, ordinary or
// subnormal.
func fermiInputs(rng *rand.Rand, n int) (acc, bs []float64, w, a float64) {
	acc, bs = make([]float64, n), make([]float64, n)
	for i := range bs {
		switch rng.Intn(8) {
		case 0:
			bs[i] = 0
		case 1:
			bs[i] = math.Inf(1)
		case 2:
			bs[i] = math.MaxFloat64 * rng.Float64()
		default:
			bs[i] = math.Exp(600 * rng.Float64())
		}
		switch rng.Intn(4) {
		case 0:
			acc[i] = 0
		case 1:
			acc[i] = 5e-324 * float64(rng.Intn(1<<20))
		default:
			acc[i] = rng.ExpFloat64() * 1e-10
		}
	}
	w = rng.ExpFloat64() * 1e-11
	if rng.Intn(4) == 0 {
		w = 5e-324 * float64(1+rng.Intn(1<<30))
	}
	a = math.Exp(1400*rng.Float64() - 700)
	return acc, bs, w, a
}

// TestFermiKernelsMatchGeneric: the kernels the samplers call give the
// generic loops' bits. Lengths 0–33 run both the two-sample body and
// the odd tail. The accumulator starts one element into its backing
// array, so the packed loads and stores run 8 bytes off the
// allocation's alignment, and has a spare element past len(bs). It is
// also bs itself, which the
// kernels allow because each element's update reads only its own
// acc[i] and bs[i].
func TestFermiKernelsMatchGeneric(t *testing.T) {
	kernels := []struct {
		name          string
		kernel, plain func(acc, bs []float64, w, a float64)
	}{
		{"fermiAdd", fermiAdd, fermiAddGeneric},
		{"fermiAddPrime", fermiAddPrime, fermiAddPrimeGeneric},
	}
	rng := rand.New(rand.NewSource(1))
	trials := 300
	if testing.Short() {
		trials = 30
	}
	for _, k := range kernels {
		for n := 0; n <= 33; n++ {
			for trial := range trials {
				acc, bs, w, a := fermiInputs(rng, n)
				want := append([]float64(nil), acc...)
				k.plain(want, bs, w, a)

				// got sits between two guard elements that must stay 0.
				guarded := make([]float64, n+2)
				got := guarded[1 : n+2]
				copy(got, acc)
				k.kernel(got, bs, w, a)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d trial %d [%d]: b=%g w=%g a=%g acc=%g: kernel %#016x, loop %#016x",
							k.name, n, trial, i, bs[i], w, a, acc[i], math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
				if guarded[0] != 0 || guarded[n+1] != 0 {
					t.Fatalf("%s n=%d: wrote outside acc[:len(bs)]: %v", k.name, n, guarded)
				}

				alias := append([]float64(nil), bs...)
				want = append([]float64(nil), bs...)
				k.plain(want, alias, w, a)
				k.kernel(alias, alias, w, a)
				for i := range want {
					if math.Float64bits(alias[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s n=%d trial %d aliased [%d]: kernel %g, loop %g", k.name, n, trial, i, alias[i], want[i])
					}
				}
			}
		}
	}
}

// TestSampleNSZeroAlloc pins the sampler's allocation budget: its
// per-chunk scratch lives on the stack, which holds only while the
// kernels' slice arguments do not escape (go:noescape on amd64).
// Skipped under -race, whose instrumentation allocates.
func TestSampleNSZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := newDefault(t)
	vscs := units.Linspace(-0.87, 0.03, 240)
	out := make([]float64, len(vscs))
	if avg := testing.AllocsPerRun(50, func() { m.SampleNS(vscs, out) }); avg != 0 {
		t.Fatalf("SampleNS allocates %.1f objects per 240-sample batch", avg)
	}
	if avg := testing.AllocsPerRun(50, func() { m.SampleNS(out, out) }); avg != 0 {
		t.Fatalf("aliased SampleNS allocates %.1f objects per batch", avg)
	}
	// 60 V is too far below the batch's top level for the shared rule,
	// so it goes through N.
	far := []float64{60, -6, 0.1}
	if avg := testing.AllocsPerRun(50, func() { m.SampleNS(far, out) }); avg != 0 {
		t.Fatalf("SampleNS allocates %.1f objects on a batch with a sample off the rule", avg)
	}
}

// TestSampleNZeroAlloc: one table-sized batch of N and N′ samples
// allocates nothing. Skipped under -race.
func TestSampleNZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := newDefault(t)
	lo, hi := DefaultTableRange(m.dev.EF)
	us := units.Linspace(lo, hi, tableChunk)
	n, np := make([]float64, len(us)), make([]float64, len(us))
	if avg := testing.AllocsPerRun(50, func() { m.sampleN(us, n, np) }); avg != 0 {
		t.Fatalf("sampleN allocates %.1f objects per %d-sample batch", avg, tableChunk)
	}
}
