package core

import (
	"cntfet/internal/fettoy"
	"cntfet/internal/telemetry"
)

// IDSFrom implements the sweep package's warm-start interface. The
// closed-form solve has no iteration state to warm, so the guess is
// ignored; the solved VSC is still returned so chunked sweeps can
// drive reference and piecewise models through one code path.
func (m *Model) IDSFrom(b fettoy.Bias, _ float64) (ids, vsc float64, err error) {
	vsc, err = m.SolveVSC(b)
	if err != nil {
		return 0, 0, err
	}
	return m.CurrentAtVSC(vsc, b), vsc, nil
}

// batchBlock is the stride of the row kernel: points are processed in
// blocks of this many, with the solved VSC values parked in a stack
// buffer between the solve loop and the current loop. 64 keeps the
// buffer (512 B) comfortably on the stack while the two tight loops
// each run long enough to amortise their setup.
const batchBlock = 64

// IDSBatch evaluates one current per bias into out (which must be at
// least as long as bias), implementing the sweep package's batch
// interface. It is the closed-form serving kernel and allocates
// nothing (testing.AllocsPerRun == 0, telemetry on or off):
//
//   - Region dispatch is hoisted out of the inner loop: the scan
//     cursor that locates the root's piecewise segment is carried from
//     point to point, so runs of neighbouring points that share a
//     segment pay two residual sign checks instead of a full
//     breakpoint scan (see solveVSCRow).
//   - Each block runs two tight loops over contiguous slices: one
//     evaluating the segment polynomials' closed-form roots into a
//     stack buffer, one turning the solved voltages into currents.
//   - Telemetry is accumulated in local counters and flushed with one
//     atomic add per touched instrument after the batch; the inner
//     loop carries no shared-counter traffic at all.
//
// Counter totals (core.solves, core.dispatch.*) are identical to the
// per-point path's. A bias whose solve finds no root stops the batch
// with SolveVSC's error for it, which wraps rootfind.ErrBadBracket.
func (m *Model) IDSBatch(bias []fettoy.Bias, out []float64) error {
	if i := m.idsRow(bias, out); i < len(bias) {
		return errNoRoot(bias[i])
	}
	return nil
}

// idsRow is IDSBatch's kernel. It returns len(bias), or the index of
// the first bias whose solve finds no root, where it stops.
//
//perf:zeroalloc
func (m *Model) idsRow(bias []fettoy.Bias, out []float64) int {
	var counts [dispatchCount]int64
	var solves int64
	var vscBuf [batchBlock]float64
	cursor := -1 // no segment hint yet: first point pays the cold scan
	for base := 0; base < len(bias); base += batchBlock {
		end := base + batchBlock
		if end > len(bias) {
			end = len(bias)
		}
		blk := bias[base:end]
		// Solve loop: closed-form roots only, currents deferred.
		for i, b := range blk {
			v, branch, ok := m.solveVSCRow(m.ulEff(b), b.VD-b.VS, &cursor)
			solves++
			counts[branch]++
			if !ok {
				if telemetry.On() {
					flushDispatch(&counts, solves)
				}
				return base + i
			}
			vscBuf[i] = v
		}
		// Current loop: the Fermi-integral evaluation over the solved
		// slice, contiguous reads from the stack buffer.
		for i, b := range blk {
			out[base+i] = m.CurrentAtVSC(vscBuf[i], b)
		}
	}
	if telemetry.On() {
		flushDispatch(&counts, solves)
	}
	return len(bias)
}
