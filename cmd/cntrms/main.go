// Command cntrms reproduces the accuracy tables of the paper:
//
//	cntrms -table 2    table II:  RMS% of Models 1-2 vs theory, EF=-0.32eV
//	cntrms -table 3    table III: same at EF=-0.5eV
//	cntrms -table 4    table IV:  same at EF=0eV
//	cntrms -table 5    table V:   RMS% vs (synthetic) experiment, Javey device
//
// Each of tables II-IV spans T ∈ {150, 300, 450} K and VG 0.1..0.6 V
// with VDS swept 0..0.6 V per cell.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"cntfet"
	"cntfet/internal/engine"
	"cntfet/internal/expdata"
	"cntfet/internal/report"
	"cntfet/internal/sweep"
)

func main() {
	table := flag.Int("table", 2, "paper table to regenerate (2-5)")
	optimize := flag.Bool("optimize", false, "re-optimise region boundaries per device for tables 2-4 (the paper's numerical boundary selection)")
	paperBreaks := flag.Bool("paperbreaks", false, "table 5: keep the nominal-device breakpoints instead of re-deriving them for the weak-gate Javey device")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var err error
	switch *table {
	case 2:
		err = accuracyTable(ctx, -0.32, "Table II: average RMS errors in IDS, EF=-0.32eV", *optimize)
	case 3:
		err = accuracyTable(ctx, -0.5, "Table III: average RMS errors in IDS, EF=-0.5eV", *optimize)
	case 4:
		err = accuracyTable(ctx, 0, "Table IV: average RMS errors in IDS, EF=0eV", *optimize)
	case 5:
		// The Javey back-gate device has CΣ ~27x below the nominal
		// device, which amplifies charge-fit error; the paper's
		// breakpoints are a fit *result* for the nominal device, so
		// table V re-derives them per the paper's method by default.
		err = experimentTable(ctx, !*paperBreaks)
	default:
		err = fmt.Errorf("unknown table %d", *table)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cntrms:", err)
		if errors.Is(err, engine.ErrCanceled) {
			os.Exit(130)
		}
		os.Exit(1)
	}
}

// accuracyTable builds one of tables II-IV: rows are gate voltages,
// column pairs are (Model 1, Model 2) per temperature.
func accuracyTable(ctx context.Context, ef float64, title string, optimize bool) error {
	temps := []float64{150, 300, 450}
	vgs := sweep.TableGates()
	vds := sweep.Grid()

	cells := make(map[float64][2][]float64) // temp -> [model1, model2] errors per VG
	for _, temp := range temps {
		dev := cntfet.DefaultDevice()
		dev.EF = ef
		dev.T = temp
		ref, err := cntfet.NewReference(dev)
		if err != nil {
			return err
		}
		// The reference family is swept once per temperature and reused
		// as the precomputed RefFamily of both models' compare jobs.
		refJob, err := engine.Run(ctx, engine.Request{
			Kind:    engine.FamilySweep,
			Model:   ref,
			Gates:   vgs,
			Drains:  vds,
			Workers: 1,
		})
		if err != nil {
			return err
		}
		var pair [2][]float64
		for mi, spec := range []cntfet.Spec{cntfet.Model1Spec(), cntfet.Model2Spec()} {
			m, err := cntfet.FitFrom(ref, spec, cntfet.FitOptions{OptimizeBreaks: optimize})
			if err != nil {
				return err
			}
			cmp, err := engine.Run(ctx, engine.Request{
				Kind:      engine.RMSCompare,
				Model:     m,
				RefFamily: refJob.Family,
				Gates:     vgs,
				Drains:    vds,
				Workers:   1,
			})
			if err != nil {
				return err
			}
			pair[mi] = cmp.RMSPercent
		}
		cells[temp] = pair
	}

	tb := report.NewTable(title,
		"VG[V]",
		"150K M1", "150K M2",
		"300K M1", "300K M2",
		"450K M1", "450K M2")
	for gi, vg := range vgs {
		row := []string{fmt.Sprintf("%.1f", vg)}
		for _, temp := range temps {
			pair := cells[temp]
			row = append(row,
				fmt.Sprintf("%.1f%%", pair[0][gi]),
				fmt.Sprintf("%.1f%%", pair[1][gi]))
		}
		tb.AddRow(row...)
	}
	tb.Render(os.Stdout)
	return nil
}

// experimentTable builds table V: RMS of FETToy theory and both
// piecewise models against the synthetic experimental dataset.
func experimentTable(ctx context.Context, optimize bool) error {
	vgs := expdata.TableGates()
	vds := expdata.PaperVDS(41)
	ds, err := expdata.Generate(vgs, vds)
	if err != nil {
		return err
	}
	ref, err := cntfet.NewReference(cntfet.JaveyDevice())
	if err != nil {
		return err
	}
	m1, err := cntfet.FitFrom(ref, cntfet.Model1Spec(), cntfet.FitOptions{OptimizeBreaks: optimize})
	if err != nil {
		return err
	}
	m2, err := cntfet.FitFrom(ref, cntfet.Model2Spec(), cntfet.FitOptions{OptimizeBreaks: optimize})
	if err != nil {
		return err
	}

	// The experimental dataset is the fixed RefFamily every model is
	// compared against: one compare job per model column.
	expFam := make([]sweep.Curve, len(vgs))
	for i, vg := range vgs {
		exp, err := ds.Curve(vg)
		if err != nil {
			return err
		}
		expFam[i] = sweep.Curve{VG: vg, VDS: vds, IDS: exp}
	}
	models := []cntfet.Transistor{ref, m1, m2}
	errsByModel := make([][]float64, len(models))
	for mi, m := range models {
		cmp, err := engine.Run(ctx, engine.Request{
			Kind:      engine.RMSCompare,
			Model:     m,
			RefFamily: expFam,
			Gates:     vgs,
			Drains:    vds,
			Workers:   1,
		})
		if err != nil {
			return err
		}
		errsByModel[mi] = cmp.RMSPercent
	}

	tb := report.NewTable(
		"Table V: average RMS errors vs experiment, d=1.6nm tox=50nm T=300K EF=-0.05eV",
		"VG[V]", "FETToy", "Model 1", "Model 2")
	for gi, vg := range vgs {
		row := []string{fmt.Sprintf("%.1f", vg)}
		for mi := range models {
			row = append(row, fmt.Sprintf("%.1f%%", errsByModel[mi][gi]))
		}
		tb.AddRow(row...)
	}
	tb.Render(os.Stdout)
	fmt.Println("\nexperiment = deterministic synthetic stand-in (see internal/expdata); paper band: 7-11%")
	return nil
}
