// Benchmark harness: one benchmark (or group) per table and figure of
// the paper. Run everything with
//
//	go test -bench=. -benchmem
//
// Table I is the timing comparison itself; the figure benchmarks time
// the generation of each figure's data series; the accuracy-table
// benchmarks time one grid cell and report the measured RMS error
// through b.ReportMetric so accuracy and speed appear side by side.
// The printed rows/series of each table and figure come from the cmd/
// tools (cntbench, cntrms, cntiv, cntfit); EXPERIMENTS.md records the
// paper-vs-measured comparison.
package cntfet

import (
	"context"
	"math"
	"testing"

	"cntfet/internal/circuit"
	"cntfet/internal/device"
	"cntfet/internal/expdata"
	"cntfet/internal/logic"
	"cntfet/internal/netlist"
	"cntfet/internal/sweep"
	"cntfet/internal/telemetry"
	"cntfet/internal/units"
	"cntfet/internal/variation"
)

// sharedModels caches the fitted models across benchmarks: fitting
// costs one theory sampling pass and would otherwise dominate every
// benchmark's setup.
type sharedModels struct {
	ref    *Reference
	refTab *Reference // identical device, ChargeTable attached and built
	m1, m2 *Piecewise
}

var shared *sharedModels

func getShared(b *testing.B) *sharedModels {
	b.Helper()
	if shared != nil {
		return shared
	}
	ref, err := NewReference(DefaultDevice())
	if err != nil {
		b.Fatal(err)
	}
	m1, err := FitFrom(ref, Model1Spec(), FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	m2, err := FitFrom(ref, Model2Spec(), FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	refTab, err := NewReference(DefaultDevice())
	if err != nil {
		b.Fatal(err)
	}
	if err := refTab.EnableTable(TableOptions{}).BuildContext(context.Background()); err != nil {
		b.Fatal(err)
	}
	shared = &sharedModels{ref: ref, refTab: refTab, m1: m1, m2: m2}
	return shared
}

// paperFamily evaluates the Table-I workload: 7 gate curves, 61 VDS
// points.
func paperFamily(b *testing.B, m Transistor) {
	b.Helper()
	vgs := sweep.PaperGates()
	vds := units.Linspace(0, 0.6, 61)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Family(context.Background(), m, vgs, vds, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Table I: CPU time for the family of IDS characteristics ---

func BenchmarkTableI_FETToy(b *testing.B) { paperFamily(b, getShared(b).ref) }
func BenchmarkTableI_Model1(b *testing.B) { paperFamily(b, getShared(b).m1) }
func BenchmarkTableI_Model2(b *testing.B) { paperFamily(b, getShared(b).m2) }

// Single-operating-point version of the same comparison: the paper's
// per-evaluation claim, isolated from sweep plumbing.
func BenchmarkSolveOp_FETToy(b *testing.B) {
	s := getShared(b)
	bias := Bias{VG: 0.5, VD: 0.3}
	for i := 0; i < b.N; i++ {
		if _, err := s.ref.IDS(bias); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveOp_Model1(b *testing.B) {
	s := getShared(b)
	bias := Bias{VG: 0.5, VD: 0.3}
	for i := 0; i < b.N; i++ {
		if _, err := s.m1.IDS(bias); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveOp_Model2(b *testing.B) {
	s := getShared(b)
	bias := Bias{VG: 0.5, VD: 0.3}
	for i := 0; i < b.N; i++ {
		if _, err := s.m2.IDS(bias); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Tables II-IV: accuracy grids ---

// benchAccuracyCell times one (T, EF) table cell — a full model fit
// plus the VG x VDS comparison grid — and reports the worst measured
// RMS error as a benchmark metric.
func benchAccuracyCell(b *testing.B, ef, temp float64, spec Spec) {
	b.Helper()
	dev := DefaultDevice()
	dev.EF = ef
	dev.T = temp
	ref, err := NewReference(dev)
	if err != nil {
		b.Fatal(err)
	}
	vgs := sweep.TableGates()
	vds := units.Linspace(0, 0.6, 31)
	famRef, err := Family(context.Background(), ref, vgs, vds, 1)
	if err != nil {
		b.Fatal(err)
	}
	worst := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := FitFrom(ref, spec, FitOptions{})
		if err != nil {
			b.Fatal(err)
		}
		fam, err := Family(context.Background(), m, vgs, vds, 1)
		if err != nil {
			b.Fatal(err)
		}
		errs, err := CompareFamilies(fam, famRef)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range errs {
			if e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(worst, "worst-rms-%")
}

func BenchmarkTableII_EFm032_300K_Model1(b *testing.B) {
	benchAccuracyCell(b, -0.32, 300, Model1Spec())
}

func BenchmarkTableII_EFm032_300K_Model2(b *testing.B) {
	benchAccuracyCell(b, -0.32, 300, Model2Spec())
}

func BenchmarkTableIII_EFm05_450K_Model2(b *testing.B) {
	benchAccuracyCell(b, -0.5, 450, Model2Spec())
}

func BenchmarkTableIV_EF0_150K_Model2(b *testing.B) {
	benchAccuracyCell(b, 0, 150, Model2Spec())
}

// --- Table V / figures 10-11: experimental comparison ---

func BenchmarkTableV_JaveyComparison(b *testing.B) {
	vgs := expdata.TableGates()
	vds := expdata.PaperVDS(21)
	ds, err := expdata.Generate(vgs, vds)
	if err != nil {
		b.Fatal(err)
	}
	ref, err := NewReference(JaveyDevice())
	if err != nil {
		b.Fatal(err)
	}
	m2, err := FitFrom(ref, Model2Spec(), FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	worst := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, vg := range vgs {
			exp, err := ds.Curve(vg)
			if err != nil {
				b.Fatal(err)
			}
			c, err := Trace(m2, vg, vds)
			if err != nil {
				b.Fatal(err)
			}
			e, err := RMSPercent(c, sweep.Curve{VG: vg, VDS: vds, IDS: exp})
			if err != nil {
				b.Fatal(err)
			}
			if e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(worst, "worst-rms-%")
}

// --- Figures 2-5: charge-curve fitting ---

func BenchmarkFig2_FitModel1(b *testing.B) {
	s := getShared(b)
	for i := 0; i < b.N; i++ {
		if _, err := FitFrom(s.ref, Model1Spec(), FitOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3_FitModel2(b *testing.B) {
	s := getShared(b)
	for i := 0; i < b.N; i++ {
		if _, err := FitFrom(s.ref, Model2Spec(), FitOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// Figures 4/5: evaluating the fitted charge curves against the theory
// samples (the comparison the figures plot).
func benchChargeCompare(b *testing.B, m *Piecewise) {
	b.Helper()
	s := getShared(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := Quality(s.ref, m, FitOptions{})
		if q.RMS <= 0 {
			b.Fatal("degenerate quality")
		}
	}
}

func BenchmarkFig4_ChargeCompare_Model1(b *testing.B) { benchChargeCompare(b, getShared(b).m1) }
func BenchmarkFig5_ChargeCompare_Model2(b *testing.B) { benchChargeCompare(b, getShared(b).m2) }

// --- Figures 6-9: IV family generation ---

func benchFigureFamily(b *testing.B, temp, ef float64, vgs []float64, spec Spec) {
	b.Helper()
	dev := DefaultDevice()
	dev.T = temp
	dev.EF = ef
	ref, err := NewReference(dev)
	if err != nil {
		b.Fatal(err)
	}
	m, err := FitFrom(ref, spec, FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	vds := units.Linspace(0, 0.6, 61)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Family(context.Background(), m, vgs, vds, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_Family_Model1(b *testing.B) {
	benchFigureFamily(b, 300, -0.32, sweep.PaperGates(), Model1Spec())
}

func BenchmarkFig7_Family_Model2(b *testing.B) {
	benchFigureFamily(b, 300, -0.32, sweep.PaperGates(), Model2Spec())
}

func BenchmarkFig8_Family_150K_EF0(b *testing.B) {
	benchFigureFamily(b, 150, 0, units.Linspace(0.1, 0.6, 6), Model2Spec())
}

func BenchmarkFig9_Family_450K_EFm05(b *testing.B) {
	benchFigureFamily(b, 450, -0.5, units.Linspace(0.4, 0.6, 5), Model2Spec())
}

func BenchmarkFig10_JaveyFamily_Model1(b *testing.B) {
	ref, err := NewReference(JaveyDevice())
	if err != nil {
		b.Fatal(err)
	}
	m, err := FitFrom(ref, Model1Spec(), FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	vds := expdata.PaperVDS(41)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Family(context.Background(), m, expdata.PaperGates(), vds, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11_JaveyFamily_Model2(b *testing.B) {
	ref, err := NewReference(JaveyDevice())
	if err != nil {
		b.Fatal(err)
	}
	m, err := FitFrom(ref, Model2Spec(), FitOptions{})
	if err != nil {
		b.Fatal(err)
	}
	vds := expdata.PaperVDS(41)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Family(context.Background(), m, expdata.PaperGates(), vds, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Circuit-level extensions (the paper's motivating use case) ---

func BenchmarkCircuit_InverterVTC(b *testing.B) {
	deck, err := netlist.Parse(`cnt inverter
.model fast cnt level=2
VDD vdd 0 0.6
VIN in 0 0
MP out in vdd fast p
MN out in 0 fast n
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deck.Circuit.DCSweep("VIN", 0, 0.6, 0.02, circuit.DCOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCircuit_InverterTransient(b *testing.B) {
	deck, err := netlist.Parse(`cnt inverter transient
.model fast cnt level=2
VDD vdd 0 0.6
VIN in 0 PULSE(0 0.6 0 10p 10p 2n 4n)
MP out in vdd fast p
MN out in 0 fast n
CL out 0 10f
`)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := deck.Circuit.Transient(context.Background(), circuit.TranOptions{Step: 40e-12, Stop: 4e-9}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md design-choice benchmarks) ---

// ablationRMS measures the worst per-gate RMS error of a fitted
// variant on the table-II 300 K grid.
func ablationRMS(b *testing.B, spec Spec, opt FitOptions) {
	b.Helper()
	s := getShared(b)
	vgs := sweep.TableGates()
	vds := units.Linspace(0, 0.6, 31)
	famRef, err := Family(context.Background(), s.ref, vgs, vds, 1)
	if err != nil {
		b.Fatal(err)
	}
	worst := 0.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := FitFrom(s.ref, spec, opt)
		if err != nil {
			b.Fatal(err)
		}
		fam, err := Family(context.Background(), m, vgs, vds, 1)
		if err != nil {
			b.Fatal(err)
		}
		errs, err := CompareFamilies(fam, famRef)
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range errs {
			if e > worst {
				worst = e
			}
		}
	}
	b.ReportMetric(worst, "worst-rms-%")
}

// Paper breakpoints vs numerically optimised ones (the paper's own
// boundary-selection procedure).
func BenchmarkAblation_Model1_PaperBreaks(b *testing.B) {
	ablationRMS(b, Model1Spec(), FitOptions{})
}

func BenchmarkAblation_Model1_OptimizedBreaks(b *testing.B) {
	ablationRMS(b, Model1Spec(), FitOptions{OptimizeBreaks: true})
}

// C0 vs C1 continuity against the zero tail (Model 1 collapses to one
// degree of freedom with TailC1).
func BenchmarkAblation_Model1_TailC1(b *testing.B) {
	spec := Model1Spec()
	spec.TailC1 = true
	ablationRMS(b, spec, FitOptions{})
}

// Knee-weighted vs uniform least squares.
func BenchmarkAblation_Model2_UniformWeights(b *testing.B) {
	ablationRMS(b, Model2Spec(), FitOptions{WeightFloor: -1})
}

func BenchmarkAblation_Model2_KneeWeighted(b *testing.B) {
	ablationRMS(b, Model2Spec(), FitOptions{})
}

// One model trained across 150-450 K vs fitted at the device's own
// temperature.
func BenchmarkAblation_Model2_MultiTemp(b *testing.B) {
	ablationRMS(b, Model2Spec(), FitOptions{TrainTemps: []float64{150, 300, 450}})
}

// One worker vs the default worker count on the reference model (the
// piecewise models barely benefit — scheduling costs about as much as
// the solve). cntbench -sweepbench times the legacy point-per-task
// scheduler against these.
func BenchmarkFamilyParallel_FETToy(b *testing.B) {
	s := getShared(b)
	vgs := sweep.PaperGates()
	vds := units.Linspace(0, 0.6, 31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Family(context.Background(), s.ref, vgs, vds, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFamilySerial_FETToy(b *testing.B) {
	s := getShared(b)
	vgs := sweep.PaperGates()
	vds := units.Linspace(0, 0.6, 31)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Family(context.Background(), s.ref, vgs, vds, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// One self-consistent solve through each path. -benchmem is the
// allocation assertion for the tabulated paths: Table and WarmStart
// must report 0 B/op (the hard guarantee is TestTableLookupZeroAlloc
// in internal/fettoy). newton_iters/op and integral_evals/op are the
// fettoy.newton_iters and fettoy.integral_evals deltas of the timed
// loop: the solver work one solve pays.
func BenchmarkSolveVSC_Direct(b *testing.B) {
	benchSolveVSC(b, getShared(b).ref, math.NaN())
}

func BenchmarkSolveVSC_Table(b *testing.B) {
	benchSolveVSC(b, getShared(b).refTab, math.NaN())
}

func BenchmarkSolveVSC_WarmStart(b *testing.B) {
	s := getShared(b)
	vsc, _, err := s.refTab.SolveVSC(Bias{VG: 0.5, VD: 0.3})
	if err != nil {
		b.Fatal(err)
	}
	benchSolveVSC(b, s.refTab, vsc)
}

// benchSolveVSC times SolveVSCFrom(guess) at VG 0.5 V, VD 0.3 V (a NaN
// guess is the cold start) and reports its solver work per op.
func benchSolveVSC(b *testing.B, ref *Reference, guess float64) {
	bias := Bias{VG: 0.5, VD: 0.3}
	iters := telemetry.Default().Counter(telemetry.KeyFettoyNewtonIters)
	integrals := telemetry.Default().Counter(telemetry.KeyFettoyIntegralEvals)
	iters0, integrals0 := iters.Value(), integrals.Value()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ref.SolveVSCFrom(bias, guess); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(iters.Value()-iters0)/float64(b.N), "newton_iters/op")
	b.ReportMetric(float64(integrals.Value()-integrals0)/float64(b.N), "integral_evals/op")
}

// Analytic vs finite-difference conductances: the Jacobian-assembly
// cost inside the circuit simulator.
func BenchmarkConductances_Analytic_Model2(b *testing.B) {
	s := getShared(b)
	bias := Bias{VG: 0.5, VD: 0.3}
	for i := 0; i < b.N; i++ {
		if _, _, _, err := s.m2.Conductances(bias); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConductances_Analytic_FETToy(b *testing.B) {
	s := getShared(b)
	bias := Bias{VG: 0.5, VD: 0.3}
	for i := 0; i < b.N; i++ {
		if _, _, _, err := s.ref.Conductances(bias); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extensions: logic, AC, Monte Carlo ---

func BenchmarkLogic_RingOscillator3(b *testing.B) {
	s := getShared(b)
	l := &logic.Library{Model: s.m2, VDD: 0.6, LoadCap: 2e-15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := circuit.New()
		if err := l.Supply(c, "VDD"); err != nil {
			b.Fatal(err)
		}
		nodes, err := l.RingOscillator(c, "ring", 3)
		if err != nil {
			b.Fatal(err)
		}
		sols, err := c.Transient(context.Background(), circuit.TranOptions{Step: 10e-12, Stop: 4e-9, DC: circuit.DCOptions{MaxIter: 300}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := logic.OscillationFrequency(sols, nodes[0], 0.6, 1e-9); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCircuit_ACSweepCommonSource(b *testing.B) {
	s := getShared(b)
	c := circuit.New()
	c.MustAdd(&circuit.VSource{Label: "VDD", P: "vdd", N: circuit.Ground, Wave: circuit.DC(0.6)})
	c.MustAdd(&circuit.VSource{Label: "VIN", P: "g", N: circuit.Ground, Wave: circuit.DC(0.45)})
	c.MustAdd(&circuit.Resistor{Label: "RL", A: "vdd", B: "d", Ohms: 30e3})
	c.MustAdd(&circuit.CNTFET{Label: "M1", D: "d", G: "g", S: circuit.Ground, Model: s.m2})
	c.MustAdd(&circuit.Capacitor{Label: "CL", A: "d", B: circuit.Ground, Farads: 50e-15})
	freqs, err := circuit.DecadeFrequencies(1e6, 1e12, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.AC("VIN", freqs, circuit.DCOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMonteCarlo_EFOnly_1000(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := variation.MonteCarloIDS(context.Background(), DefaultDevice(),
			variation.Spread{EF: 0.02}, Bias{VG: 0.5, VD: 0.4}, 1000, 1)
		if err != nil {
			b.Fatal(err)
		}
		if res.Mean <= 0 {
			b.Fatal("degenerate run")
		}
	}
}

// The paper's closing claim at face value: a 176-transistor 4-bit CNT
// adder solved with the fast model vs the full theory. This is the
// per-device evaluation speedup compounding through a real circuit's
// Newton iterations.
func benchAdder(b *testing.B, model device.Solver) {
	b.Helper()
	l := &logic.Library{Model: model, VDD: 0.6}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := circuit.New()
		if err := l.Supply(c, "VDD"); err != nil {
			b.Fatal(err)
		}
		var aN, bN []string
		for k := 0; k < 4; k++ {
			aN = append(aN, string(rune('a'))+string(rune('0'+k)))
			bN = append(bN, string(rune('b'))+string(rune('0'+k)))
			c.MustAdd(&circuit.VSource{Label: "VA" + aN[k], P: aN[k], N: circuit.Ground, Wave: circuit.DC(0.6)})
			c.MustAdd(&circuit.VSource{Label: "VB" + bN[k], P: bN[k], N: circuit.Ground, Wave: circuit.DC(0)})
		}
		c.MustAdd(&circuit.VSource{Label: "VCIN", P: "cin", N: circuit.Ground, Wave: circuit.DC(0)})
		if _, _, err := l.RippleCarryAdder(c, "add", aN, bN, "cin"); err != nil {
			b.Fatal(err)
		}
		if _, err := c.OperatingPoint(circuit.DCOptions{MaxIter: 400}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCircuit_Adder4Bit_Model2(b *testing.B) { benchAdder(b, getShared(b).m2) }

func BenchmarkCircuit_Adder4Bit_FETToy(b *testing.B) {
	if testing.Short() {
		b.Skip("full-theory circuit solve")
	}
	benchAdder(b, getShared(b).ref)
}
