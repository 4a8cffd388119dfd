// fitting explores the trade-off the paper's section IV leaves open:
// "It is possible to use more sections for an even higher accuracy but
// at some computational expense. We are currently investigating in
// more detail how the number of sections affects the trade-off between
// accuracy and speed."
//
// This example runs that investigation: it fits piecewise charge
// models with 3 to 6 regions (the paper's Models 1 and 2 plus two
// denser extensions), measures the IDS accuracy of each against the
// theory over the paper's bias grid, and times the closed-form
// evaluation.
//
//	go run ./examples/fitting
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"cntfet"
	"cntfet/internal/report"
	"cntfet/internal/sweep"
	"cntfet/internal/units"
)

func main() {
	specs := []cntfet.Spec{
		cntfet.Model1Spec(),
		cntfet.Model2Spec(),
		{
			Name:     "Model 3 (5 regions)",
			Breaks:   []float64{-0.35, -0.15, -0.02, 0.12},
			Degrees:  []int{1, 2, 3, 3},
			ZeroTail: true,
		},
		{
			Name:     "Model 4 (6 regions)",
			Breaks:   []float64{-0.4, -0.22, -0.08, 0.0, 0.12},
			Degrees:  []int{1, 2, 3, 3, 3},
			ZeroTail: true,
		},
	}

	dev := cntfet.DefaultDevice()
	theory, err := cntfet.NewReference(dev)
	if err != nil {
		log.Fatal(err)
	}
	vgs := sweep.TableGates()
	vds := units.Linspace(0, 0.6, 31)
	famTheory, err := cntfet.Family(context.Background(), theory, vgs, vds, 0)
	if err != nil {
		log.Fatal(err)
	}

	tb := report.NewTable(
		"regions vs accuracy vs speed (paper section IV open question)",
		"spec", "regions", "fit time", "worst rms", "mean rms", "eval/op")
	for _, spec := range specs {
		t0 := time.Now()
		m, err := cntfet.FitFrom(theory, spec, cntfet.FitOptions{OptimizeBreaks: true})
		if err != nil {
			log.Fatalf("%s: %v", spec.Name, err)
		}
		fitTime := time.Since(t0)

		fam, err := cntfet.Family(context.Background(), m, vgs, vds, 0)
		if err != nil {
			log.Fatal(err)
		}
		errs, err := cntfet.CompareFamilies(fam, famTheory)
		if err != nil {
			log.Fatal(err)
		}
		worst, mean := 0.0, 0.0
		for _, e := range errs {
			if e > worst {
				worst = e
			}
			mean += e
		}
		mean /= float64(len(errs))

		// Time the closed-form evaluation.
		const evals = 20000
		b := cntfet.Bias{VG: 0.5, VD: 0.3}
		t0 = time.Now()
		for i := 0; i < evals; i++ {
			if _, err := m.IDS(b); err != nil {
				log.Fatal(err)
			}
		}
		perOp := time.Since(t0) / evals

		tb.AddRow(
			spec.Name,
			fmt.Sprintf("%d", len(spec.Degrees)+1),
			fmt.Sprintf("%v", fitTime.Round(time.Millisecond)),
			fmt.Sprintf("%.2f%%", worst),
			fmt.Sprintf("%.2f%%", mean),
			perOp.String(),
		)
	}
	tb.Render(log.Writer())
	fmt.Println()
	fmt.Println("reading: accuracy improves with region count while the closed-form")
	fmt.Println("evaluation cost stays flat — the fit (done once per device) is the")
	fmt.Println("only place the extra regions cost anything.")
}
