package fettoy

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cntfet/internal/bandstruct"
	"cntfet/internal/telemetry"
)

// TableOptions tunes a ChargeTable. The zero value selects defaults
// suitable for terminal voltages up to about ±1 V around the device's
// operating region.
type TableOptions struct {
	// UMin, UMax bound the tabulated effective-Fermi-level range on the
	// u axis the state-density integral N(u) is evaluated on (u = EF -
	// VSC for the source term, shifted by -VDS for the drain term).
	// Both zero selects [EF - 1.3, EF + 1.4], which covers the paper's
	// 0..0.6 V bias grids including the cold-start bracket probes (the
	// initial bracket reaches u = EF + UL + 0.5 ≤ EF + 1.05 on those
	// grids). Lookups outside the range fall back to direct quadrature
	// and count as misses.
	UMin, UMax float64
	// RelTol is the interpolation accuracy bound: the grid is refined
	// until the cubic Hermite midpoint error on each interval is below
	// RelTol·(|N| + 1e-9·scale), where scale is the largest tabulated
	// density. Zero selects 1e-6, comfortably below the <0.1 % IDS
	// agreement target.
	RelTol float64
	// InitIntervals is the uniform starting grid resolution before
	// adaptive refinement. Zero selects 64.
	InitIntervals int
	// MaxNodes caps grid growth during refinement. Zero selects 8192.
	MaxNodes int
}

// DefaultTableRange returns the u range, in eV, a table takes when
// TableOptions leaves it zero: [ef − 1.3, ef + 1.4] for Fermi level ef.
func DefaultTableRange(ef float64) (umin, umax float64) { return ef - 1.3, ef + 1.4 }

func (o TableOptions) withDefaults(ef float64) TableOptions {
	if o.UMin == 0 && o.UMax == 0 { //lint:allow floatcmp both exactly zero selects the default range
		o.UMin, o.UMax = DefaultTableRange(ef)
	}
	if o.RelTol <= 0 {
		o.RelTol = 1e-6
	}
	if o.InitIntervals <= 0 {
		o.InitIntervals = 64
	}
	if o.MaxNodes <= 0 {
		o.MaxNodes = 8192
	}
	return o
}

// tableData is the immutable, atomically published result of one build:
// node positions with the sampled N and N' values at each node. Between
// nodes the table interpolates with the C¹ cubic Hermite spline those
// values define.
type tableData struct {
	u, n, np []float64
	scale    float64 // max tabulated |N|, the error-bound reference
}

// ChargeTable tabulates the state-density integral N(u) — the cost the
// reference model pays at every Newton iteration — once per (device, T)
// and u range, and serves later evaluations by cubic Hermite
// interpolation. N(u) does not depend on EF, so models that differ only
// in EF can share one table (ShareTable). The
// grid is adaptive: intervals are split until the interpolation error
// at the midpoint is within the configured accuracy bound, so the node
// count tracks kT (colder devices need finer grids near the band edge).
//
// A ChargeTable is safe for concurrent use: the first lookup triggers
// one build (later lookups block until it is published), and the
// published grid is immutable afterwards. A build canceled through
// BuildContext leaves the table unbuilt — the next lookup or build
// simply retries. The table never invalidates — it is tied to the
// state density of the Model it was created over, whose device
// parameters are fixed at construction; a new device or temperature
// means a new state density and therefore a new table.
//
// Work is observable through the fettoy.table.* telemetry counters:
// builds and nodes record construction cost, hits and misses record
// how lookups split between interpolation and the direct-quadrature
// fallback.
type ChargeTable struct {
	m   *Model
	opt TableOptions
	// mu serialises builds; data publishes the immutable result. A
	// mutex (not sync.Once) so a canceled build can be retried.
	mu   sync.Mutex
	data atomic.Pointer[tableData]
}

// NewChargeTable prepares a table over the model's state density. The
// build is lazy: the first lookup (from any goroutine) pays for it.
func NewChargeTable(m *Model, opt TableOptions) *ChargeTable {
	return &ChargeTable{m: m, opt: opt.withDefaults(m.dev.EF)}
}

// EnableTable attaches a charge table to the model and routes every
// subsequent SolveVSC through it: Newton iterations evaluate the
// tabulated N and N' instead of re-integrating the density of states.
// Lookups outside the tabulated range fall back to direct quadrature,
// so accuracy degrades to the error bound, never to garbage. Call it
// before sharing the model across goroutines, like SetTrace; the
// returned table can be inspected or pre-built with BuildContext.
func (m *Model) EnableTable(opt TableOptions) *ChargeTable {
	t := NewChargeTable(m, opt)
	m.table = t
	return t
}

// ShareTable attaches a table another model built (or will build), so
// models that differ only in EF tabulate N(u) once: N(u) depends on the
// subband ladder, E1 and kT, never on EF, which only picks the window
// a model's solves read. It fails unless the table's builder has
// bit-equal bands, E1 and kT and the table's range covers the model's
// own default window [EF - 1.3, EF + 1.4]. A shared table builds once,
// under whichever sharing model's context or lookup reaches it first.
// Call it before sharing the model across goroutines, like EnableTable.
func (m *Model) ShareTable(t *ChargeTable) error {
	b := t.m
	sameDensity := sameBits(b.e1, m.e1) && sameBits(b.kT, m.kT) &&
		slices.EqualFunc(b.bands, m.bands, func(x, y bandstruct.Subband) bool {
			return sameBits(x.EMin, y.EMin) && x.Degeneracy == y.Degeneracy
		})
	if !sameDensity {
		return fmt.Errorf("fettoy: charge table of another state density (T=%g K, E1=%g eV) cannot serve T=%g K, E1=%g eV",
			b.dev.T, b.e1, m.dev.T, m.e1)
	}
	if lo, hi := DefaultTableRange(m.dev.EF); !(t.opt.UMin <= lo && hi <= t.opt.UMax) {
		return fmt.Errorf("fettoy: charge table range [%g, %g] eV does not cover EF=%g eV's window [%g, %g]",
			t.opt.UMin, t.opt.UMax, m.dev.EF, lo, hi)
	}
	m.table = t
	return nil
}

func sameBits(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }

// Table returns the attached charge table, or nil when solves run on
// direct quadrature.
func (m *Model) Table() *ChargeTable { return m.table }

// BuildContext forces table construction now instead of on first
// lookup, so callers can keep the one-time quadrature cost out of timed
// regions. The adaptive refinement checks ctx before every batch of at
// most 64 samples (each costs tens of µs, so cancellation lands
// promptly) and returns an error wrapping the context's cause when
// aborted. A canceled build leaves the table unbuilt; retrying later —
// with this method or a plain lookup — starts over.
func (t *ChargeTable) BuildContext(ctx context.Context) error {
	_, err := t.tabCtx(ctx)
	return err
}

// BuildContext implements the optional device.ContextBuilder
// capability on the model itself: it pre-builds the attached charge
// table, if any, under the caller's context. Models running on direct
// quadrature have nothing to build.
func (m *Model) BuildContext(ctx context.Context) error {
	if m.table == nil {
		return nil
	}
	return m.table.BuildContext(ctx)
}

// Nodes returns the adaptive grid size (building the table if needed).
func (t *ChargeTable) Nodes() int { return len(t.tab().u) }

// Range returns the tabulated u interval.
func (t *ChargeTable) Range() (umin, umax float64) { return t.opt.UMin, t.opt.UMax }

// At returns the interpolated state density and its derivative at u
// (on the normalised energy axis, in eV), falling back to the exact
// integrals outside the tabulated range.
func (t *ChargeTable) At(u float64) (n, nprime float64) {
	n, nprime, ok := t.eval(u)
	if ok {
		metrics.tableHits.Inc()
		return n, nprime
	}
	metrics.tableMisses.Inc()
	return t.m.N(u), t.m.NPrime(u)
}

// tab returns the built grid, building it on first use. Lookups carry
// no context, so the implicit build is non-cancellable by design.
func (t *ChargeTable) tab() *tableData {
	d, _ := t.tabCtx(context.Background()) //lint:allow ctxpropagate lookups carry no context; implicit build is non-cancellable by design
	return d
}

// tabCtx returns the built grid, building it under ctx if needed. The
// double-checked atomic keeps the hot lookup path lock-free once the
// grid is published.
func (t *ChargeTable) tabCtx(ctx context.Context) (*tableData, error) {
	if d := t.data.Load(); d != nil {
		return d, nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if d := t.data.Load(); d != nil {
		return d, nil
	}
	// The one-time tabulation is exactly the kind of hidden cost spans
	// exist for: under the sweep service it shows up as a child of the
	// job that happened to arrive first.
	ctx, span := telemetry.StartSpan(ctx, telemetry.SpanFettoyTableBuild)
	span.Set(telemetry.Float(telemetry.AttrTableUMin, t.opt.UMin), telemetry.Float(telemetry.AttrTableUMax, t.opt.UMax))
	d, err := t.build(ctx)
	if err != nil {
		span.Set(telemetry.String(telemetry.AttrError, err.Error()))
		span.End()
		return nil, err
	}
	span.Set(telemetry.Int(telemetry.AttrTableNodes, int64(len(d.u))))
	span.End()
	t.data.Store(d)
	metrics.tableBuilds.Inc()
	metrics.tableNodes.Add(int64(len(d.u)))
	return d, nil
}

// eval is the allocation-free lookup the solver hot path uses: the
// Hermite value and derivative at u, or ok=false outside the grid.
func (t *ChargeTable) eval(u float64) (n, nprime float64, ok bool) {
	d := t.tab()
	xs := d.u
	if u < xs[0] || u > xs[len(xs)-1] {
		return 0, 0, false
	}
	i := sort.SearchFloat64s(xs, u)
	if i == 0 {
		return d.n[0], d.np[0], true
	}
	u0, u1 := xs[i-1], xs[i]
	h := u1 - u0
	tt := (u - u0) / h
	n0, n1 := d.n[i-1], d.n[i]
	m0, m1 := d.np[i-1]*h, d.np[i]*h
	t2 := tt * tt
	t3 := t2 * tt
	n = n0*(2*t3-3*t2+1) + m0*(t3-2*t2+tt) + n1*(-2*t3+3*t2) + m1*(t3-t2)
	nprime = (n0*(6*t2-6*tt) + m0*(3*t2-4*tt+1) + n1*(6*tt-6*t2) + m1*(3*t2-2*tt)) / h
	return n, nprime, true
}

// tableDepth bounds refinement: 12 halvings of the initial spacing.
const tableDepth = 12

// build samples N and N' on a uniform grid, then refines breadth-first:
// each level bisects every still-open interval whose cubic Hermite
// prediction misses the accuracy bound at its midpoint or, failing that
// check's blind spot, at its left quarter point. A level samples all
// its midpoints as one batch and all the quarter points it needs as
// another (sampleN), so the whole level shares one quadrature rule per
// chunk. Refinement stops after tableDepth levels or when the MaxNodes
// budget is spent, splitting in ascending u within the level that
// spends it. ctx is checked before every sampleN chunk (the unit of
// real work).
func (t *ChargeTable) build(ctx context.Context) (*tableData, error) {
	opt := t.opt
	m := t.m
	// sample fills n (and np when non-nil) at the ascending us.
	sample := func(us, n, np []float64) error {
		for lo := 0; lo < len(us); lo += tableChunk {
			if ctx.Err() != nil {
				return fmt.Errorf("fettoy: table build canceled: %w", context.Cause(ctx))
			}
			hi := min(lo+tableChunk, len(us))
			var npc []float64
			if np != nil {
				npc = np[lo:hi]
			}
			m.sampleN(us[lo:hi], n[lo:hi], npc)
		}
		return nil
	}

	nodes := opt.InitIntervals + 1
	u, n, np := make([]float64, nodes), make([]float64, nodes), make([]float64, nodes)
	for i := range u {
		u[i] = opt.UMin + (opt.UMax-opt.UMin)*float64(i)/float64(opt.InitIntervals)
	}
	if err := sample(u, n, np); err != nil {
		return nil, err
	}
	scale := 0.0
	for _, v := range n {
		scale = max(scale, math.Abs(v))
	}
	floor := 1e-9 * scale
	within := func(pred, sampled float64) bool {
		return math.Abs(pred-sampled) <= opt.RelTol*(math.Abs(sampled)+floor)
	}

	// open lists the left nodes of the intervals still refining.
	open := make([]int, opt.InitIntervals)
	for i := range open {
		open[i] = i
	}
	budget := opt.MaxNodes - nodes
	for level := 0; level < tableDepth && len(open) > 0 && budget > 0; level++ {
		mu, mn, mnp := make([]float64, len(open)), make([]float64, len(open)), make([]float64, len(open))
		for j, i := range open {
			mu[j] = 0.5 * (u[i] + u[i+1])
		}
		if err := sample(mu, mn, mnp); err != nil {
			return nil, err
		}
		// split[j] reports whether open interval j is bisected. The
		// midpoint alone under-detects asymmetric error (the exponential
		// tail at low T peaks off-centre), so an interval passing it is
		// confirmed at its quarter point, also as one batch.
		split := make([]bool, len(open))
		var quarter []int // open intervals whose quarter point qu samples
		var qu []float64
		for j, i := range open {
			h := u[i+1] - u[i]
			m0, m1 := np[i]*h, np[i+1]*h
			if pred := 0.5*(n[i]+n[i+1]) + 0.125*(m0-m1); within(pred, mn[j]) {
				quarter = append(quarter, j)
				qu = append(qu, u[i]+0.25*h)
			} else {
				split[j] = true
			}
		}
		qn := make([]float64, len(qu))
		if err := sample(qu, qn, nil); err != nil {
			return nil, err
		}
		for k, j := range quarter {
			i := open[j]
			h := u[i+1] - u[i]
			m0, m1 := np[i]*h, np[i+1]*h
			predQ := 0.84375*n[i] + 0.140625*m0 + 0.15625*n[i+1] - 0.046875*m1
			split[j] = !within(predQ, qn[k])
		}

		// Insert the accepted midpoints; both halves of a split interval
		// stay open for the next level.
		splits := 0
		for j := range split {
			if split[j] && splits < budget {
				splits++
			} else {
				split[j] = false
			}
		}
		budget -= splits
		nu := make([]float64, 0, len(u)+splits)
		nn := make([]float64, 0, len(u)+splits)
		nnp := make([]float64, 0, len(u)+splits)
		next := make([]int, 0, 2*splits)
		j := 0
		for i := range u {
			nu, nn, nnp = append(nu, u[i]), append(nn, n[i]), append(nnp, np[i])
			if j < len(open) && open[j] == i {
				if split[j] {
					next = append(next, len(nu)-1, len(nu))
					nu, nn, nnp = append(nu, mu[j]), append(nn, mn[j]), append(nnp, mnp[j])
				}
				j++
			}
		}
		u, n, np, open = nu, nn, nnp, next
	}
	return &tableData{u: u, n: n, np: np, scale: scale}, nil
}
