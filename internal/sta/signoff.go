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
	// entries are left 0.
	LoadsFF []float64
}

// Signoff runs slew-propagating NLDM STA at every corner, into a dead
// result's storage: the per-net and per-corner slices of recycle are
// reused in place, and a nil recycle allocates fresh. A recycled result
// is bit-identical to a fresh one, because recycled slices are zeroed
// exactly like fresh allocations. The caller must guarantee nothing
// references recycle anymore.
func Signoff(nl *netlist.Netlist, p SignoffParams, recycle *SignoffResult) (*SignoffResult, error) {
	if p.Corners == nil {
		p.Corners = cell.SignoffCorners
	}
	if p.InputSlewPS <= 0 {
		p.InputSlewPS = 20
	}
	res := recycleSignoff(recycle, nl.NumNets(), len(p.Corners))
	res.Netlist, res.AreaUM2 = nl, nl.AreaUM2()
	for gi := range nl.Gates {
		out := nl.Gates[gi].Output
		res.LoadsFF[out] = nl.LoadFF(out)
	}
	for ci, corner := range p.Corners {
		cr := &res.Corners[ci]
		if err := analyzeCorner(nl, cr, corner, p.InputSlewPS, res.LoadsFF); err != nil {
			return nil, err
		}
		if cr.MaxDelayPS > res.WorstDelayPS {
			res.WorstDelayPS = cr.MaxDelayPS
			res.WorstCorner = corner.Name
		}
	}
	return res, nil
}

// recycleSignoff returns a SignoffResult shell with storage reused from
// recycle (which must be dead: no other holder) sized for numNets nets
// and numCorners corners. A nil recycle allocates everything fresh; in
// both cases the per-net slices are zeroed like fresh allocations, so
// recycled results are bit-identical to fresh ones by construction.
func recycleSignoff(recycle *SignoffResult, numNets, numCorners int) *SignoffResult {
	res := recycle
	if res == nil {
		res = &SignoffResult{}
	}
	prev := res.Corners[:cap(res.Corners)]
	corners := res.Corners[:0]
	if cap(corners) < numCorners {
		corners = make([]CornerResult, 0, numCorners)
	}
	// Reuse each previous corner slot's per-net slices; slots beyond the
	// previous corner count start fresh.
	for i := 0; i < numCorners; i++ {
		var cr CornerResult
		if i < len(prev) {
			cr.ArrivalPS = growF64(prev[i].ArrivalPS, numNets)
			cr.SlewPS = growF64(prev[i].SlewPS, numNets)
		} else {
			cr.ArrivalPS = make([]float64, numNets)
			cr.SlewPS = make([]float64, numNets)
		}
		cr.CriticalPO = -1
		corners = append(corners, cr)
	}
	loads := growF64(res.LoadsFF, numNets)
	*res = SignoffResult{Corners: corners, LoadsFF: loads}
	return res
}

// growF64 returns b resized to n elements, all zero — the recycled
// equivalent of make([]float64, n).
func growF64(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
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
		c := g.Cell
		if c.NLDM == nil {
			return fmt.Errorf("sta: cell %s has no NLDM tables", c.Name)
		}
		load := loads[g.Output]
		// Worst-slew merging: the latest-arriving transition is assumed
		// to carry the worst slew seen at any pin (a standard
		// conservative simplification of per-arc analysis).
		arr, slew := 0.0, inputSlew
		for _, in := range g.Inputs {
			if a := cr.ArrivalPS[in]; a > arr {
				arr = a
			}
			if s := cr.SlewPS[in]; s > slew {
				slew = s
			}
		}
		d := c.NLDM.Delay.Lookup(slew, load) * corner.Scale
		cr.ArrivalPS[g.Output] = arr + d
		cr.SlewPS[g.Output] = c.NLDM.SlewOut.Lookup(slew, load) * corner.Scale
	}
	for i, po := range nl.POs {
		if a := cr.ArrivalPS[po]; cr.CriticalPO < 0 || a > cr.MaxDelayPS {
			cr.MaxDelayPS = a
			cr.CriticalPO = i
		}
	}
	return nil
}
