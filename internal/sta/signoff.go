package sta

import (
	"fmt"

	"aigtimer/internal/cell"
	"aigtimer/internal/netlist"
)

// Signoff-grade STA: NLDM table lookup with slew propagation, swept over
// process corners. This is the expensive, accurate analysis that the
// ground-truth optimization flow pays for at every iteration — the cost
// the paper's learned predictor amortizes away.

// SignoffParams configures signoff analysis.
type SignoffParams struct {
	// Corners are the process corners analyzed; the slow corner governs
	// the reported delay. Defaults to cell.SignoffCorners.
	Corners []cell.Corner
	// InputSlewPS is the transition time assumed at every primary
	// input, in picoseconds. Defaults to 20 ps.
	InputSlewPS float64
}

// CornerResult is the analysis at one process corner.
type CornerResult struct {
	// Corner identifies the process corner (name and delay scale).
	Corner cell.Corner
	// ArrivalPS and SlewPS are the per-net latest arrival time and
	// propagated transition time at this corner, indexed by NetID.
	ArrivalPS []float64
	SlewPS    []float64
	// MaxDelayPS is the maximum arrival over all POs at this corner;
	// CriticalPO is the PO index realizing it (-1 without POs).
	MaxDelayPS float64
	CriticalPO int
}

// SignoffResult aggregates all corners.
type SignoffResult struct {
	// Netlist is the analyzed design.
	Netlist *netlist.Netlist
	// Corners holds one CornerResult per analyzed corner, in the order
	// of SignoffParams.Corners.
	Corners []CornerResult
	// WorstDelayPS is the maximum delay over all corners (the slow
	// corner governs); WorstCorner names the governing corner.
	WorstDelayPS float64
	WorstCorner  string
	// AreaUM2 is a convenience copy of the netlist cell area.
	AreaUM2 float64
	// LoadsFF is the capacitive load of every gate-output net, shared
	// by all corners (loads are corner-independent); primary-input net
	// entries are left 0. SignoffUpdate compares these against a
	// previous analysis to decide which gates to re-evaluate.
	LoadsFF []float64
	// InputSlewPS is the primary-input transition time the analysis
	// assumed; SignoffUpdate refuses to seed from a result produced
	// under different parameters.
	InputSlewPS float64
}

// Signoff runs slew-propagating NLDM STA at every corner.
func Signoff(nl *netlist.Netlist, p SignoffParams) (*SignoffResult, error) {
	return SignoffInto(nl, p, nil)
}

// SignoffInto is Signoff recycling a dead result's storage (the per-net
// and per-corner slices are reused in place; nil allocates fresh). The
// returned result is bit-identical to Signoff's: recycled slices are
// zeroed exactly like fresh allocations. The caller must guarantee
// nothing references recycle anymore.
func SignoffInto(nl *netlist.Netlist, p SignoffParams, recycle *SignoffResult) (*SignoffResult, error) {
	r := beginSignoff(nl, p, recycle)
	return r.run()
}

// withDefaults fills the zero-value fields; Signoff and SignoffUpdate
// must default identically for incremental results to be exact.
func (p SignoffParams) withDefaults() SignoffParams {
	if p.Corners == nil {
		p.Corners = cell.SignoffCorners
	}
	if p.InputSlewPS <= 0 {
		p.InputSlewPS = 20
	}
	return p
}

// aggregate derives the governing corner summary from the per-corner
// results; shared by Signoff and SignoffUpdate.
func (res *SignoffResult) aggregate() {
	res.WorstDelayPS, res.WorstCorner = 0, ""
	for _, cr := range res.Corners {
		if cr.MaxDelayPS > res.WorstDelayPS {
			res.WorstDelayPS = cr.MaxDelayPS
			res.WorstCorner = cr.Corner.Name
		}
	}
}

// netLoads computes the load of every gate-output net into loads (length
// NumNets, zeroed); loads are corner-independent, so all corners share
// the slice.
func netLoads(nl *netlist.Netlist, loads []float64) {
	for gi := range nl.Gates {
		out := nl.Gates[gi].Output
		loads[out] = nl.LoadFF(out)
	}
}

// analyzeCorner runs the full forward pass at one corner into cr, whose
// per-net slices are pre-sized and zeroed.
func analyzeCorner(nl *netlist.Netlist, cr *CornerResult, corner cell.Corner, inputSlew float64, loads []float64) error {
	cr.Corner = corner
	for i := 0; i < nl.NumPIs; i++ {
		cr.SlewPS[i] = inputSlew
	}
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		arr, slew, err := gateCornerEval(nl, cr.ArrivalPS, cr.SlewPS, gi, corner, inputSlew, loads)
		if err != nil {
			return err
		}
		cr.ArrivalPS[g.Output] = arr
		cr.SlewPS[g.Output] = slew
	}
	for i, po := range nl.POs {
		if a := cr.ArrivalPS[po]; cr.CriticalPO < 0 || a > cr.MaxDelayPS {
			cr.MaxDelayPS = a
			cr.CriticalPO = i
		}
	}
	return nil
}

// gateCornerEval computes one gate's output (arrival, slew) at a corner
// from the current per-net values — the single evaluation step shared
// verbatim by the full corner pass and the incremental update, so both
// produce bit-identical numbers.
func gateCornerEval(nl *netlist.Netlist, arrival, slews []float64, gi int,
	corner cell.Corner, inputSlew float64, loads []float64) (float64, float64, error) {
	g := &nl.Gates[gi]
	c := g.Cell
	if c.NLDM == nil {
		return 0, 0, fmt.Errorf("sta: cell %s has no NLDM tables", c.Name)
	}
	load := loads[g.Output]
	// Worst-slew merging: the latest-arriving transition is assumed
	// to carry the worst slew seen at any pin (a standard
	// conservative simplification of per-arc analysis).
	arr, slew := 0.0, inputSlew
	for _, in := range g.Inputs {
		if a := arrival[in]; a > arr {
			arr = a
		}
		if s := slews[in]; s > slew {
			slew = s
		}
	}
	d := c.NLDM.Delay.Lookup(slew, load) * corner.Scale
	return arr + d, c.NLDM.SlewOut.Lookup(slew, load) * corner.Scale, nil
}
