// Package circuit is a small SPICE-like simulator built on modified
// nodal analysis (MNA). It exists because the paper's model is
// explicitly a *circuit-level* model ("suitable for implementation in
// SPICE-like simulators where large numbers of such devices may be
// used"): the CNTFET element stamps either the reference or the
// piecewise transistor model into the Jacobian, and the inverter/logic
// examples and benchmarks run through this engine.
//
// Supported analyses: DC operating point (damped Newton with gmin
// stepping), DC sweeps with continuation, and fixed-step transient
// (backward Euler or trapezoidal) with companion models.
package circuit

import (
	"fmt"
	"sort"

	"cntfet/internal/telemetry"
)

// Ground is the reference node name; it is always voltage zero.
const Ground = "0"

// Element is anything that can stamp itself into the MNA system.
type Element interface {
	// Name returns the unique element name (R1, MN2, ...).
	Name() string
	// Nodes lists the element's terminal node names.
	Nodes() []string
	// Stamp adds the element's contribution for the current Newton
	// iterate. Linear elements ignore the iterate.
	Stamp(s *Stamper)
}

// BranchElement is an element that introduces an MNA branch-current
// unknown (voltage sources).
type BranchElement interface {
	Element
	// BranchCount reports how many branch currents the element owns.
	BranchCount() int
}

// Circuit is a netlist of elements.
type Circuit struct {
	elems []Element
	byNam map[string]Element

	// trace, when attached via SetTrace, receives structured solver
	// events from every analysis.
	trace *telemetry.Tracer
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{byNam: make(map[string]Element)}
}

// Add appends an element; names must be unique.
func (c *Circuit) Add(e Element) error {
	if e.Name() == "" {
		return fmt.Errorf("circuit: element with empty name")
	}
	if _, dup := c.byNam[e.Name()]; dup {
		return fmt.Errorf("circuit: duplicate element %q", e.Name())
	}
	c.byNam[e.Name()] = e
	c.elems = append(c.elems, e)
	return nil
}

// MustAdd is Add for programmatic construction; it panics on error.
func (c *Circuit) MustAdd(e Element) {
	if err := c.Add(e); err != nil {
		panic(err)
	}
}

// Element returns the named element, or nil.
func (c *Circuit) Element(name string) Element { return c.byNam[name] }

// Elements returns the elements in insertion order.
func (c *Circuit) Elements() []Element { return c.elems }

// Nodes returns the sorted list of non-ground node names.
func (c *Circuit) Nodes() []string {
	set := map[string]bool{}
	for _, e := range c.elems {
		for _, n := range e.Nodes() {
			if n != Ground {
				set[n] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// indexer maps node names and element branches to MNA indices.
type indexer struct {
	node   map[string]int // node name -> matrix row (ground absent)
	branch map[string]int // element name -> first branch row
	n      int            // total unknowns
}

func (c *Circuit) buildIndex() *indexer {
	ix := &indexer{node: map[string]int{}, branch: map[string]int{}}
	for _, n := range c.Nodes() {
		ix.node[n] = ix.n
		ix.n++
	}
	for _, e := range c.elems {
		if be, ok := e.(BranchElement); ok && be.BranchCount() > 0 {
			ix.branch[e.Name()] = ix.n
			ix.n += be.BranchCount()
		}
	}
	return ix
}

// Solution holds node voltages and branch currents after an analysis
// step.
type Solution struct {
	ix *indexer
	x  []float64
	// Time is the transient time of this solution (0 for DC).
	Time float64
}

// Voltage returns the voltage of a node (0 for ground and for unknown
// nodes, matching SPICE's treatment of dangling probes).
func (s *Solution) Voltage(node string) float64 {
	if node == Ground || s == nil {
		return 0
	}
	i, ok := s.ix.node[node]
	if !ok {
		return 0
	}
	return s.x[i]
}

// BranchCurrent returns the branch current of a voltage-source element
// (positive from + terminal through the source to the - terminal), or
// 0 if the element has no branch.
func (s *Solution) BranchCurrent(elem string) float64 {
	i, ok := s.ix.branch[elem]
	if !ok {
		return 0
	}
	return s.x[i]
}

// Clone deep-copies the solution vector.
func (s *Solution) Clone() *Solution {
	c := *s
	c.x = append([]float64(nil), s.x...)
	return &c
}
