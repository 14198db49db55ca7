// Incremental STA. After an incremental remap, most of the netlist is
// gate-for-gate identical to the previously analyzed one (the
// correspondence is a netlist.NetMap); arrival times and slews only
// move inside the remapped region and through whatever fanout cone its
// new loads and arrivals reach. SignoffUpdate seeds the new analysis
// with the previous per-net values and repropagates only through that
// changed frontier, stopping as soon as recomputed values converge with
// the seeded ones.
//
// Exactness. SignoffUpdate returns results bit-identical to running
// Signoff from scratch on the new netlist. The argument is
// the standard memoized-fixed-point one on a DAG: a gate is skipped
// only when its driver is the same cell with corresponding inputs, its
// output load equals the previous load, and no input net's value moved
// away from its seeded copy — in which case recomputing it would
// reproduce the copy verbatim (the per-gate evaluation step is shared
// code with the full pass). The summary (per-corner max delay and
// critical PO, governing corner) is rederived with the same code.
package sta

import (
	"aigtimer/internal/netlist"
)

// seedable reports whether prev can seed an incremental signoff of nl
// under p: the bookkeeping must be present, the correspondence sized
// for nl, and the analysis parameters (input slew, corner list)
// identical — seeded values from a different-parameter analysis would
// silently mix corners instead of failing.
func seedable(prev *SignoffResult, nl *netlist.Netlist, prevOf netlist.NetMap, p SignoffParams) bool {
	if prev == nil || prev.LoadsFF == nil || len(prevOf) != nl.NumNets() ||
		prev.InputSlewPS != p.InputSlewPS || len(prev.Corners) != len(p.Corners) {
		return false
	}
	for i := range p.Corners {
		if prev.Corners[i].Corner != p.Corners[i] {
			return false
		}
	}
	return true
}

// SignoffUpdate incrementally re-times nl at every corner, seeding from
// prev through the prevOf correspondence. The result is bit-identical
// to Signoff(nl, p). Only gates in the changed fanout frontier pay NLDM
// table lookups; converged regions keep their seeded arrivals and
// slews. A prev that cannot seed this analysis — produced under
// different parameters (corners, input slew) or without load
// bookkeeping — degrades safely to a full Signoff.
func SignoffUpdate(prev *SignoffResult, nl *netlist.Netlist, prevOf netlist.NetMap, p SignoffParams) (*SignoffResult, error) {
	return SignoffUpdateInto(prev, nl, prevOf, p, nil, nil)
}

// SignoffUpdateInto is SignoffUpdate recycling a dead result's storage
// and a caller-owned worklist Scratch (either may be nil to allocate
// fresh). A retained pipeline that reuses both performs zero steady-state
// allocations here. The result is bit-identical to SignoffUpdate's; the
// caller must guarantee nothing references recycle anymore.
func SignoffUpdateInto(prev *SignoffResult, nl *netlist.Netlist, prevOf netlist.NetMap, p SignoffParams, recycle *SignoffResult, sc *Scratch) (*SignoffResult, error) {
	r := beginSignoffUpdate(prev, nl, prevOf, p, recycle, sc)
	return r.run()
}
