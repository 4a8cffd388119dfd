package circuit

import (
	"fmt"
	"math"
	"math/cmplx"

	"cntfet/internal/linalg"
	"cntfet/internal/telemetry"
)

// ACStamper assembles the complex small-signal MNA system at one
// angular frequency, linearised about a DC operating point.
type ACStamper struct {
	ix  *indexer
	a   *linalg.CMatrix
	rhs []complex128
	// Omega is the angular frequency (rad/s).
	Omega float64
	// OP is the DC operating point the circuit is linearised about.
	OP *Solution
	// Source is the name of the excited independent source (unit
	// amplitude, zero phase); all other independent sources are
	// quiesced.
	Source string
}

func (s *ACStamper) nodeIndex(node string) int {
	if node == Ground {
		return -1
	}
	i, ok := s.ix.node[node]
	if !ok {
		return -1
	}
	return i
}

// BranchIndex returns the branch row of a named element.
func (s *ACStamper) BranchIndex(elem string) int { return s.ix.branch[elem] }

// Admittance stamps a two-terminal complex admittance between a and b.
func (s *ACStamper) Admittance(a, b string, y complex128) {
	ia, ib := s.nodeIndex(a), s.nodeIndex(b)
	if ia >= 0 {
		s.a.Add(ia, ia, y)
	}
	if ib >= 0 {
		s.a.Add(ib, ib, y)
	}
	if ia >= 0 && ib >= 0 {
		s.a.Add(ia, ib, -y)
		s.a.Add(ib, ia, -y)
	}
}

// Transadmittance stamps i(outP,outN) = y·v(inP,inN).
func (s *ACStamper) Transadmittance(outP, outN, inP, inN string, y complex128) {
	op, on := s.nodeIndex(outP), s.nodeIndex(outN)
	ip, in := s.nodeIndex(inP), s.nodeIndex(inN)
	add := func(r, c int, v complex128) {
		if r >= 0 && c >= 0 {
			s.a.Add(r, c, v)
		}
	}
	add(op, ip, y)
	add(op, in, -y)
	add(on, ip, -y)
	add(on, in, y)
}

// VoltageBranch stamps a phasor voltage-source branch.
func (s *ACStamper) VoltageBranch(row int, p, n string, v complex128) {
	ip, in := s.nodeIndex(p), s.nodeIndex(n)
	if ip >= 0 {
		s.a.Add(ip, row, 1)
		s.a.Add(row, ip, 1)
	}
	if in >= 0 {
		s.a.Add(in, row, -1)
		s.a.Add(row, in, -1)
	}
	s.rhs[row] += v
}

// CurrentInto stamps a phasor current into node a, out of node b.
func (s *ACStamper) CurrentInto(a, b string, i complex128) {
	if ia := s.nodeIndex(a); ia >= 0 {
		s.rhs[ia] += i
	}
	if ib := s.nodeIndex(b); ib >= 0 {
		s.rhs[ib] -= i
	}
}

// ACElement is implemented by elements that participate in AC
// analysis. Every element type in this package implements it.
type ACElement interface {
	StampAC(s *ACStamper)
}

// StampAC implements ACElement.
func (r *Resistor) StampAC(s *ACStamper) { s.Admittance(r.A, r.B, complex(1/r.Ohms, 0)) }

// StampAC implements ACElement: y = jωC.
func (c *Capacitor) StampAC(s *ACStamper) {
	s.Admittance(c.A, c.B, complex(0, s.Omega*c.Farads))
}

// StampAC implements ACElement: unit phasor when this is the excited
// source, a short (0 V) otherwise.
func (v *VSource) StampAC(s *ACStamper) {
	amp := complex(0, 0)
	if v.Label == s.Source {
		amp = 1
	}
	s.VoltageBranch(s.BranchIndex(v.Label), v.P, v.N, amp)
}

// StampAC implements ACElement: unit phasor when excited, open
// otherwise.
func (i *ISource) StampAC(s *ACStamper) {
	if i.Label == s.Source {
		s.CurrentInto(i.P, i.N, 1)
	}
}

// StampAC implements ACElement: the diode's small-signal conductance
// at the operating point.
func (d *Diode) StampAC(s *ACStamper) {
	n := d.N
	if n == 0 { //lint:allow floatcmp zero N selects the default
		n = 1
	}
	temp := d.Temp
	if temp == 0 { //lint:allow floatcmp zero Temp selects the default
		temp = 300
	}
	vt := n * 8.617333262e-5 * temp
	v := s.OP.Voltage(d.A) - s.OP.Voltage(d.B)
	arg := v / vt
	if arg > 80 {
		arg = 80
	}
	g := d.Is * math.Exp(arg) / vt
	if g < 1e-15 {
		g = 1e-15
	}
	s.Admittance(d.A, d.B, complex(g, 0))
}

// StampAC implements ACElement: gm and gds evaluated at the DC
// operating point (the quasi-static small-signal model; device
// capacitances, when needed, are explicit Capacitor elements).
func (m *CNTFET) StampAC(s *ACStamper) {
	_, gm, gds, err := m.conductances(s.OP.Voltage(m.D), s.OP.Voltage(m.G), s.OP.Voltage(m.S))
	if err != nil {
		return
	}
	if gds < 1e-12 {
		gds = 1e-12
	}
	s.Admittance(m.D, m.S, complex(gds, 0))
	s.Transadmittance(m.D, m.S, m.G, m.S, complex(gm, 0))
}

// StampAC implements ACElement.
func (g *VCCS) StampAC(s *ACStamper) {
	s.Transadmittance(g.P, g.N, g.CP, g.CN, complex(g.Gain, 0))
}

// StampAC implements ACElement.
func (e *VCVS) StampAC(s *ACStamper) {
	row := s.BranchIndex(e.Label)
	ip, in := s.nodeIndex(e.P), s.nodeIndex(e.N)
	if ip >= 0 {
		s.a.Add(ip, row, 1)
		s.a.Add(row, ip, 1)
	}
	if in >= 0 {
		s.a.Add(in, row, -1)
		s.a.Add(row, in, -1)
	}
	if cp := s.nodeIndex(e.CP); cp >= 0 {
		s.a.Add(row, cp, complex(-e.Gain, 0))
	}
	if cn := s.nodeIndex(e.CN); cn >= 0 {
		s.a.Add(row, cn, complex(e.Gain, 0))
	}
}

// ACPoint is the phasor solution at one frequency.
type ACPoint struct {
	// Freq is the analysis frequency in hertz.
	Freq float64
	ix   *indexer
	x    []complex128
}

// Voltage returns the complex node phasor (0 for ground/unknown).
func (p *ACPoint) Voltage(node string) complex128 {
	if node == Ground {
		return 0
	}
	i, ok := p.ix.node[node]
	if !ok {
		return 0
	}
	return p.x[i]
}

// Mag returns |V(node)|.
func (p *ACPoint) Mag(node string) float64 { return cmplx.Abs(p.Voltage(node)) }

// PhaseDeg returns the phase of V(node) in degrees.
func (p *ACPoint) PhaseDeg(node string) float64 {
	return cmplx.Phase(p.Voltage(node)) * 180 / math.Pi
}

// BranchCurrent returns the complex branch current of a voltage-source
// element.
func (p *ACPoint) BranchCurrent(elem string) complex128 {
	i, ok := p.ix.branch[elem]
	if !ok {
		return 0
	}
	return p.x[i]
}

// AC runs a small-signal analysis: it solves the DC operating point,
// linearises every element about it, excites the named independent
// source with a unit phasor and solves the complex MNA system at each
// frequency.
func (c *Circuit) AC(source string, freqs []float64, opt DCOptions) ([]ACPoint, error) {
	if c.Element(source) == nil {
		return nil, fmt.Errorf("circuit: AC source %q not found", source)
	}
	op, err := c.OperatingPoint(opt)
	if err != nil {
		return nil, fmt.Errorf("circuit: AC operating point: %w", err)
	}
	ix := op.ix
	st := &ACStamper{ix: ix, a: linalg.NewCMatrix(ix.n, ix.n), rhs: make([]complex128, ix.n), OP: op, Source: source}
	out := make([]ACPoint, 0, len(freqs))
	for _, f := range freqs {
		if f < 0 {
			return nil, fmt.Errorf("circuit: negative frequency %g", f)
		}
		st.Omega = 2 * math.Pi * f
		st.a.Zero()
		for i := range st.rhs {
			st.rhs[i] = 0
		}
		for _, e := range c.elems {
			ae, ok := e.(ACElement)
			if !ok {
				return nil, fmt.Errorf("circuit: element %q has no AC model", e.Name())
			}
			ae.StampAC(st)
		}
		x, err := linalg.SolveCLU(st.a, st.rhs)
		if telemetry.On() {
			metrics.acSolves.Inc()
		}
		if err != nil {
			return nil, fmt.Errorf("circuit: AC solve at %g Hz: %w", f, err)
		}
		if c.trace.Enabled() {
			c.trace.Emit(telemetry.KindCircuitACPoint, telemetry.Float(telemetry.AttrT, f))
		}
		out = append(out, ACPoint{Freq: f, ix: ix, x: x})
	}
	return out, nil
}

// DecadeFrequencies returns pointsPerDecade·decades+1 logarithmically
// spaced frequencies from fstart to fstop (the SPICE ".ac dec" grid).
func DecadeFrequencies(fstart, fstop float64, pointsPerDecade int) ([]float64, error) {
	if fstart <= 0 || fstop <= fstart {
		return nil, fmt.Errorf("circuit: bad frequency range [%g, %g]", fstart, fstop)
	}
	if pointsPerDecade < 1 {
		pointsPerDecade = 10
	}
	decades := math.Log10(fstop / fstart)
	n := int(math.Ceil(decades * float64(pointsPerDecade)))
	out := make([]float64, 0, n+1)
	for i := 0; i <= n; i++ {
		f := fstart * math.Pow(10, float64(i)/float64(pointsPerDecade))
		if f > fstop {
			f = fstop
		}
		out = append(out, f)
	}
	return out, nil
}
