// inverter simulates a complementary CNT inverter — the paper's
// motivating use case ("simulations of future analog and digital
// systems built with CNT devices") and its stated future work
// ("practical logic circuit structures based on CNT devices") — through
// the SPICE-like netlist frontend, using the fast Model 2 for both
// transistors.
//
// It runs the voltage transfer characteristic and a switching
// transient, prints key logic metrics, and draws both.
//
//	go run ./examples/inverter
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"cntfet/internal/circuit"
	"cntfet/internal/netlist"
	"cntfet/internal/report"
)

const deck = `complementary CNT inverter (Model 2 devices)
.model fast cnt level=2 d=1n tox=1.5n kappa=25 ef=-0.32 temp=300 alphag=0.88 alphad=0.035
VDD vdd 0 0.6
VIN in 0 PULSE(0 0.6 0 10p 10p 2n 4n)
MP out in vdd fast p
MN out in 0 fast n
CL out 0 10f
`

func main() {
	d, err := netlist.Parse(deck)
	if err != nil {
		log.Fatal(err)
	}

	// Voltage transfer characteristic.
	vtc, err := d.Circuit.DCSweep("VIN", 0, 0.6, 0.01, circuit.DCOptions{})
	if err != nil {
		log.Fatal(err)
	}
	var vin, vout []float64
	for _, p := range vtc {
		vin = append(vin, p.Value)
		vout = append(vout, p.Solution.Voltage("out"))
	}
	fmt.Println("voltage transfer characteristic:")
	plot := report.NewASCIIPlot()
	plot.XLabel = "VIN [V]"
	plot.YLabel = "VOUT [V]"
	plot.Add('#', vin, vout)
	plot.Render(os.Stdout)

	// Logic metrics from the VTC.
	voh, vol := vout[0], vout[len(vout)-1]
	vm := switchingThreshold(vin, vout)
	gain := peakGain(vin, vout)
	tb := report.NewTable("static metrics", "metric", "value")
	tb.AddRow("VOH", fmt.Sprintf("%.3f V", voh))
	tb.AddRow("VOL", fmt.Sprintf("%.3f V", vol))
	tb.AddRow("switching threshold VM", fmt.Sprintf("%.3f V", vm))
	tb.AddRow("peak small-signal gain", fmt.Sprintf("%.1f", gain))
	tb.Render(os.Stdout)

	// Switching transient.
	sols, err := d.Circuit.Transient(context.Background(), circuit.TranOptions{Step: 10e-12, Stop: 4e-9})
	if err != nil {
		log.Fatal(err)
	}
	var ts, vo, vi []float64
	for _, s := range sols {
		ts = append(ts, s.Time*1e9)
		vo = append(vo, s.Voltage("out"))
		vi = append(vi, s.Voltage("in"))
	}
	fmt.Println("\nswitching transient (i = input, o = output):")
	tplot := report.NewASCIIPlot()
	tplot.XLabel = "time [ns]"
	tplot.YLabel = "V"
	tplot.Add('i', ts, vi)
	tplot.Add('o', ts, vo)
	tplot.Render(os.Stdout)

	fmt.Printf("\npropagation delay (50%% in -> 50%% out, falling): %.1f ps\n",
		fallDelayPS(ts, vi, vo))
}

// switchingThreshold finds VIN where VOUT crosses VDD/2.
func switchingThreshold(vin, vout []float64) float64 {
	mid := 0.3
	for i := 1; i < len(vout); i++ {
		if (vout[i-1]-mid)*(vout[i]-mid) <= 0 {
			// Linear interpolation inside the step.
			f := (mid - vout[i-1]) / (vout[i] - vout[i-1])
			return vin[i-1] + f*(vin[i]-vin[i-1])
		}
	}
	return 0
}

// peakGain returns max |dVOUT/dVIN| along the VTC.
func peakGain(vin, vout []float64) float64 {
	g := 0.0
	for i := 1; i < len(vout); i++ {
		d := (vout[i] - vout[i-1]) / (vin[i] - vin[i-1])
		if d < 0 {
			d = -d
		}
		if d > g {
			g = d
		}
	}
	return g
}

// fallDelayPS measures the first 50%-to-50% delay between the rising
// input and falling output edges. Times are in nanoseconds.
func fallDelayPS(ts, vi, vo []float64) float64 {
	cross := func(v []float64, rising bool) float64 {
		mid := 0.3
		for i := 1; i < len(v); i++ {
			if rising && v[i-1] < mid && v[i] >= mid || !rising && v[i-1] > mid && v[i] <= mid {
				f := (mid - v[i-1]) / (v[i] - v[i-1])
				return ts[i-1] + f*(ts[i]-ts[i-1])
			}
		}
		return -1
	}
	tin := cross(vi, true)
	tout := cross(vo, false)
	if tin < 0 || tout < 0 {
		return -1
	}
	return (tout - tin) * 1e3
}
