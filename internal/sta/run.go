package sta

import (
	"aigtimer/internal/netlist"
)

// signoffRun is an in-flight signoff analysis split into per-corner
// passes, the shared body of SignoffInto and SignoffUpdateInto: begin
// does the corner-independent work (loads, frontier seeding,
// defaulting), corner runs once per corner index in corner order, and
// finish derives the governing-corner summary.
type signoffRun struct {
	res    *SignoffResult
	nl     *netlist.Netlist
	p      SignoffParams
	prev   *SignoffResult
	prevOf netlist.NetMap
	sc     *Scratch
	full   bool
}

// beginSignoff starts a full signoff of nl, recycling a dead result's
// storage (nil allocates fresh; see SignoffInto).
func beginSignoff(nl *netlist.Netlist, p SignoffParams, recycle *SignoffResult) signoffRun {
	p = p.withDefaults()
	res := recycleSignoff(recycle, nl.NumNets(), len(p.Corners))
	res.Netlist, res.AreaUM2, res.InputSlewPS = nl, nl.AreaUM2(), p.InputSlewPS
	netLoads(nl, res.LoadsFF)
	return signoffRun{res: res, nl: nl, p: p, full: true}
}

// beginSignoffUpdate starts an incremental signoff of nl seeded from
// prev through the prevOf correspondence (see SignoffUpdateInto for the
// seeding contract and recycle/sc recycling; sc may be nil to allocate
// fresh). A prev that cannot seed this analysis degrades to
// beginSignoff — the run is then a full one.
func beginSignoffUpdate(prev *SignoffResult, nl *netlist.Netlist, prevOf netlist.NetMap, p SignoffParams, recycle *SignoffResult, sc *Scratch) signoffRun {
	p = p.withDefaults()
	if !seedable(prev, nl, prevOf, p) {
		return beginSignoff(nl, p, recycle)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	res := recycleSignoff(recycle, nl.NumNets(), len(p.Corners))
	res.Netlist, res.AreaUM2, res.InputSlewPS = nl, nl.AreaUM2(), p.InputSlewPS
	netLoads(nl, res.LoadsFF)
	// The frontier seed is corner-independent: correspondence and loads.
	sc.seed = growBools(sc.seed, len(nl.Gates))
	seed := sc.seed
	for gi := range nl.Gates {
		out := nl.Gates[gi].Output
		pn := prevOf[out]
		seed[gi] = pn < 0 || res.LoadsFF[out] != prev.LoadsFF[pn]
	}
	sc.dirty = growBools(sc.dirty, len(nl.Gates))
	return signoffRun{res: res, nl: nl, p: p, prev: prev, prevOf: prevOf, sc: sc}
}

// run analyzes every corner in order (full pass or seeded
// repropagation, matching how the run began) and returns the completed
// result, or the first corner's analysis failure.
func (r *signoffRun) run() (*SignoffResult, error) {
	for ci := range r.p.Corners {
		if err := r.corner(ci); err != nil {
			return nil, err
		}
	}
	r.res.aggregate()
	return r.res, nil
}

// corner analyzes corner index ci.
func (r *signoffRun) corner(ci int) error {
	cr := &r.res.Corners[ci]
	corner := r.p.Corners[ci]
	if r.full {
		return analyzeCorner(r.nl, cr, corner, r.p.InputSlewPS, r.res.LoadsFF)
	}
	nl := r.nl
	pc := &r.prev.Corners[ci]
	cr.Corner = corner
	for i := 0; i < nl.NumPIs; i++ {
		cr.SlewPS[i] = r.p.InputSlewPS
	}
	seed, dirty := r.sc.seed, r.sc.dirty
	for gi := range nl.Gates {
		dirty[gi] = seed[gi]
		out := nl.Gates[gi].Output
		if pn := r.prevOf[out]; pn >= 0 {
			cr.ArrivalPS[out] = pc.ArrivalPS[pn]
			cr.SlewPS[out] = pc.SlewPS[pn]
		}
	}
	for gi := range nl.Gates {
		if !dirty[gi] {
			continue
		}
		out := nl.Gates[gi].Output
		arr, slew, err := gateCornerEval(nl, cr.ArrivalPS, cr.SlewPS, gi, corner, r.p.InputSlewPS, r.res.LoadsFF)
		if err != nil {
			return err
		}
		if arr != cr.ArrivalPS[out] || slew != cr.SlewPS[out] {
			cr.ArrivalPS[out] = arr
			cr.SlewPS[out] = slew
			for _, ri := range nl.Fanouts(out) {
				dirty[ri] = true
			}
		}
	}
	for i, po := range nl.POs {
		if a := cr.ArrivalPS[po]; cr.CriticalPO < 0 || a > cr.MaxDelayPS {
			cr.MaxDelayPS = a
			cr.CriticalPO = i
		}
	}
	return nil
}
