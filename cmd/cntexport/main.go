// Command cntexport fits a piecewise CNT model and writes it as a
// portable artifact:
//
//	cntexport -model 2 -format json       machine-readable coefficients
//	cntexport -model 2 -format vhdl-ams   VHDL-AMS entity (the paper's
//	                                      reference-[14] deliverable)
//
// Device parameters are flags; the JSON artifact round-trips through
// the library (cntfet.FromData) without refitting.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cntfet"
	"cntfet/internal/fettoy"
)

func main() {
	modelNo := flag.Int("model", 2, "piecewise model (1 or 2)")
	format := flag.String("format", "json", "output format: json or vhdl-ams")
	entity := flag.String("entity", "cntfet_piecewise", "VHDL entity name")
	d := flag.Float64("d", 1e-9, "tube diameter [m]")
	tox := flag.Float64("tox", 1.5e-9, "oxide thickness [m]")
	kappa := flag.Float64("kappa", 25, "oxide relative permittivity")
	ef := flag.Float64("ef", -0.32, "Fermi level [eV]")
	temp := flag.Float64("t", 300, "temperature [K]")
	planar := flag.Bool("planar", false, "planar (back-gate) geometry instead of coaxial")
	optimize := flag.Bool("optimize", false, "re-optimise region boundaries for this device")
	flag.Parse()

	if err := run(*modelNo, *format, *entity, *d, *tox, *kappa, *ef, *temp, *planar, *optimize); err != nil {
		fmt.Fprintln(os.Stderr, "cntexport:", err)
		os.Exit(1)
	}
}

func run(modelNo int, format, entity string, d, tox, kappa, ef, temp float64, planar, optimize bool) error {
	dev := cntfet.DefaultDevice()
	dev.Diameter = d
	dev.Tox = tox
	dev.Kappa = kappa
	dev.EF = ef
	dev.T = temp
	if planar {
		dev.Geometry = fettoy.Planar
	}
	spec := cntfet.Model2Spec()
	if modelNo == 1 {
		spec = cntfet.Model1Spec()
	}
	m, err := cntfet.NewPiecewise(dev, spec, cntfet.FitOptions{OptimizeBreaks: optimize})
	if err != nil {
		return err
	}
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(m.Export())
	case "vhdl-ams":
		return m.WriteVHDLAMS(os.Stdout, entity)
	default:
		return fmt.Errorf("unknown format %q (want json or vhdl-ams)", format)
	}
}
