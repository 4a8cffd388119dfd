// ivfamily regenerates the data of the paper's figure 7 — the family
// of drain-current characteristics at T=300 K, EF=-0.32 eV for gate
// voltages 0.3..0.6 V — from both the theory and Model 2, prints the
// per-gate RMS error, and draws the family in the terminal.
//
//	go run ./examples/ivfamily
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"cntfet"
	"cntfet/internal/report"
	"cntfet/internal/sweep"
	"cntfet/internal/units"
)

func main() {
	dev := cntfet.DefaultDevice()
	theory, err := cntfet.NewReference(dev)
	if err != nil {
		log.Fatal(err)
	}
	fast, err := cntfet.FitFrom(theory, cntfet.Model2Spec(), cntfet.FitOptions{})
	if err != nil {
		log.Fatal(err)
	}

	vgs := sweep.PaperGates()
	vds := units.Linspace(0, 0.6, 31)

	famTheory, err := cntfet.Family(context.Background(), theory, vgs, vds, 0)
	if err != nil {
		log.Fatal(err)
	}
	famFast, err := cntfet.Family(context.Background(), fast, vgs, vds, 0)
	if err != nil {
		log.Fatal(err)
	}
	errs, err := cntfet.CompareFamilies(famFast, famTheory)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("figure 7: IDS(VDS) families, theory (*) vs Model 2 (o)")
	plot := report.NewASCIIPlot()
	plot.Height = 24
	plot.XLabel = "VDS [V]"
	plot.YLabel = "IDS [A]"
	for i := range famTheory {
		plot.Add('*', famTheory[i].VDS, famTheory[i].IDS)
		plot.Add('o', famFast[i].VDS, famFast[i].IDS)
	}
	plot.Render(os.Stdout)

	tb := report.NewTable("per-curve accuracy", "VG [V]", "IDS(0.6V) theory [A]", "Model 2 rms")
	for i, vg := range vgs {
		tb.AddRow(
			fmt.Sprintf("%.2f", vg),
			fmt.Sprintf("%.3g", famTheory[i].IDS[len(vds)-1]),
			fmt.Sprintf("%.2f%%", errs[i]),
		)
	}
	tb.Render(os.Stdout)
}
