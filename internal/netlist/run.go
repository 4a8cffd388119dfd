package netlist

import (
	"context"
	"fmt"
	"io"

	"cntfet/internal/circuit"
	"cntfet/internal/report"
	"cntfet/internal/telemetry"
)

// Run executes every analysis in deck order and writes tabular results
// to w. Probes from .print select the columns; without probes, all
// node voltages are printed. ctx is checked between analyses and, in
// a .tran, every few timesteps; a canceled deck returns an error
// wrapping the context's cause, and analyses already written to w
// stand.
//
// ".options trace" / ".options metrics" enable the process-wide
// telemetry gate for the run and append, respectively, the solver
// event log (JSON lines) and the counter snapshot ("* "-prefixed) to
// the output. A tracer already attached to the circuit (e.g. by the
// cntspice -trace flag) is left alone — the caller owns its export.
func (d *Deck) Run(ctx context.Context, w io.Writer) error {
	if len(d.Analyses) == 0 {
		return fmt.Errorf("netlist: deck has no analyses (.op/.dc/.tran)")
	}
	if d.Options.Trace || d.Options.Metrics {
		telemetry.Enable()
	}
	var ownTrace *telemetry.Tracer
	if d.Options.Trace && d.Circuit.Trace() == nil {
		capacity := d.Options.TraceCap
		if capacity == 0 {
			capacity = 4096
		}
		ownTrace = telemetry.NewTracer(capacity)
		ownTrace.SetEnabled(true)
		d.Circuit.SetTrace(ownTrace)
	}
	for _, a := range d.Analyses {
		if err := context.Cause(ctx); err != nil {
			return fmt.Errorf("netlist: canceled before .%s: %w", a.Kind, err)
		}
		switch a.Kind {
		case "op":
			if err := d.runOP(w); err != nil {
				return err
			}
		case "dc":
			if err := d.runDC(w, a); err != nil {
				return err
			}
		case "tran":
			if err := d.runTran(ctx, w, a); err != nil {
				return err
			}
		case "ac":
			if err := d.runAC(w, a); err != nil {
				return err
			}
		default:
			return fmt.Errorf("netlist: unknown analysis %q", a.Kind)
		}
	}
	if ownTrace != nil {
		fmt.Fprintln(w, "* trace events (json lines):")
		if err := ownTrace.WriteJSON(w); err != nil {
			return fmt.Errorf("netlist: trace export: %w", err)
		}
		if n := ownTrace.Dropped(); n > 0 {
			fmt.Fprintf(w, "* trace ring dropped %d oldest events (raise .options tracecap)\n", n)
		}
	}
	if d.Options.Metrics {
		fmt.Fprintln(w, "* solver metrics:")
		if err := telemetry.Default().WriteText(w, "* "); err != nil {
			return fmt.Errorf("netlist: metrics export: %w", err)
		}
	}
	return nil
}

func (d *Deck) probesOrAllNodes() []Probe {
	if len(d.Probes) > 0 {
		return d.Probes
	}
	var out []Probe
	for _, n := range d.Circuit.Nodes() {
		out = append(out, Probe{Kind: "v", Name: n})
	}
	return out
}

// probeValue resolves one probe against a solution. Current probes
// read voltage-source branch currents directly; for a CNTFET element
// they evaluate the device's drain current at the solved voltages.
func (d *Deck) probeValue(p Probe, sol *circuit.Solution) float64 {
	if p.Kind == "i" {
		if fet, ok := d.Circuit.Element(p.Name).(*circuit.CNTFET); ok {
			id, err := fet.DrainCurrent(sol)
			if err != nil {
				return 0
			}
			return id
		}
		return sol.BranchCurrent(p.Name)
	}
	return sol.Voltage(p.Name)
}

func probeHeader(p Probe) string { return fmt.Sprintf("%s(%s)", p.Kind, p.Name) }

func (d *Deck) runOP(w io.Writer) error {
	sol, err := d.Circuit.OperatingPoint(circuit.DCOptions{})
	if err != nil {
		return fmt.Errorf("netlist: .op: %w", err)
	}
	probes := d.probesOrAllNodes()
	tb := report.NewTable("Operating point", "probe", "value")
	for _, p := range probes {
		tb.AddRow(probeHeader(p), fmt.Sprintf("%.6g", d.probeValue(p, sol)))
	}
	tb.Render(w)
	return nil
}

func (d *Deck) runDC(w io.Writer, a Analysis) error {
	pts, err := d.Circuit.DCSweep(a.Source, a.From, a.To, a.Step, circuit.DCOptions{})
	if err != nil {
		return fmt.Errorf("netlist: .dc: %w", err)
	}
	probes := d.probesOrAllNodes()
	headers := []string{a.Source}
	for _, p := range probes {
		headers = append(headers, probeHeader(p))
	}
	cols := make([][]float64, len(headers))
	for _, pt := range pts {
		cols[0] = append(cols[0], pt.Value)
		for i, p := range probes {
			cols[i+1] = append(cols[i+1], d.probeValue(p, pt.Solution))
		}
	}
	fmt.Fprintf(w, "DC sweep of %s\n", a.Source)
	return report.WriteCSV(w, headers, cols...)
}

func (d *Deck) runTran(ctx context.Context, w io.Writer, a Analysis) error {
	var sols []*circuit.Solution
	var err error
	if a.Adaptive {
		sols, err = d.Circuit.TransientAdaptive(ctx, circuit.TranAdaptiveOptions{
			Stop: a.TStop, MinStep: a.TStep,
		})
	} else {
		sols, err = d.Circuit.Transient(ctx, circuit.TranOptions{
			Step: a.TStep, Stop: a.TStop, Trapezoidal: a.Trapezoidal,
		})
	}
	if err != nil {
		return fmt.Errorf("netlist: .tran: %w", err)
	}
	probes := d.probesOrAllNodes()
	headers := []string{"time"}
	for _, p := range probes {
		headers = append(headers, probeHeader(p))
	}
	cols := make([][]float64, len(headers))
	for _, sol := range sols {
		cols[0] = append(cols[0], sol.Time)
		for i, p := range probes {
			cols[i+1] = append(cols[i+1], d.probeValue(p, sol))
		}
	}
	fmt.Fprintln(w, "Transient")
	return report.WriteCSV(w, headers, cols...)
}

// runAC writes the magnitude and phase of each voltage probe across
// the frequency grid (device-current probes are not defined for AC).
func (d *Deck) runAC(w io.Writer, a Analysis) error {
	freqs, err := circuit.DecadeFrequencies(a.FStart, a.FStop, a.PerDecade)
	if err != nil {
		return fmt.Errorf("netlist: .ac: %w", err)
	}
	pts, err := d.Circuit.AC(a.Source, freqs, circuit.DCOptions{})
	if err != nil {
		return fmt.Errorf("netlist: .ac: %w", err)
	}
	probes := d.probesOrAllNodes()
	headers := []string{"freq"}
	for _, p := range probes {
		if p.Kind != "v" {
			return fmt.Errorf("netlist: .ac supports v(node) probes, got %s(%s)", p.Kind, p.Name)
		}
		headers = append(headers, "mag_"+p.Name, "phase_"+p.Name)
	}
	cols := make([][]float64, len(headers))
	for _, pt := range pts {
		cols[0] = append(cols[0], pt.Freq)
		for i, p := range probes {
			cols[1+2*i] = append(cols[1+2*i], pt.Mag(p.Name))
			cols[2+2*i] = append(cols[2+2*i], pt.PhaseDeg(p.Name))
		}
	}
	fmt.Fprintf(w, "AC sweep exciting %s\n", a.Source)
	return report.WriteCSV(w, headers, cols...)
}
