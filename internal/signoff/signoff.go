package signoff

import (
	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/netlist"
	"aigtimer/internal/sta"
	"aigtimer/internal/techmap"
)

// Result is one ground-truth evaluation.
type Result struct {
	DelayPS float64 // slow-corner maximum delay
	AreaUM2 float64
	Netlist *netlist.Netlist
	Corner  string // governing corner name
}

// effort is one mapping configuration: the priority-cut budget its
// cuts are enumerated at, and the mapper's parameters.
type effort struct {
	cuts cut.Params
	tm   techmap.Params
}

// efforts lists the mapping configurations one evaluation runs, in
// reporting order (the first wins delay/area ties): the default effort,
// then a high effort with a wider priority-cut budget and a heavier
// nominal load. Both share K, so one dual enumeration serves both.
var efforts = [2]effort{
	{cut.DefaultParams, techmap.DefaultParams},
	{cut.Params{K: 4, MaxCuts: 24}, techmap.Params{NominalLoadFF: 6.0, AreaRecovery: true}},
}

// EvalState is the storage of one pooled signoff evaluation: the cut
// enumerator and mapper it runs, and the netlists and multi-corner STA
// results of both effort levels. The Result an evaluation returns
// points into it (its Netlist is one of the state's), so the state
// stays live until Release hands it back for the pool's next
// evaluation to recycle.
type EvalState struct {
	enum   cut.Enumerator
	mapper techmap.Mapper
	nls    [2]*netlist.Netlist
	srs    [2]*sta.SignoffResult

	pool     *Pool // owning pool
	released bool
}

// pick folds one effort's outcome into the running best using the
// signoff selection rule (slow-corner delay, area breaks ties).
func pick(best Result, i int, nl *netlist.Netlist, sr *sta.SignoffResult) Result {
	cand := Result{DelayPS: sr.WorstDelayPS, AreaUM2: sr.AreaUM2, Netlist: nl, Corner: sr.WorstCorner}
	if i == 0 || cand.DelayPS < best.DelayPS ||
		(cand.DelayPS == best.DelayPS && cand.AreaUM2 < best.AreaUM2) {
		return cand
	}
	return best
}

// evaluate rebuilds st as the evaluation of g, every buffer drawn from
// st's own enumerator, mapper, netlists and STA results.
//
// Both mapping efforts share one cut enumeration: the default-effort
// cut sets (MaxCuts 8) are selected from the same pairwise merge work
// the high-effort pass (MaxCuts 24) performs, through
// cut.Enumerator.EnumerateDual, whose per-effort output is bit-identical
// to two independent enumerations — so the shared pass changes
// evaluation cost, never the mapping (asserted by
// TestEvaluateStateMatchesPerEffortMapping).
func (st *EvalState) evaluate(g *aig.AIG, lib *cell.Library) (Result, error) {
	var lists [2][][]cut.Cut
	lists[0], lists[1] = st.enum.EnumerateDual(g, efforts[0].cuts, efforts[1].cuts)
	best := Result{}
	for i, e := range efforts {
		nl, err := st.mapper.Map(g, lib, e.tm, lists[i], st.nls[i])
		if err != nil {
			return Result{}, err
		}
		st.nls[i] = nl
		sr, err := sta.Signoff(nl, sta.SignoffParams{}, st.srs[i])
		if err != nil {
			return Result{}, err
		}
		st.srs[i] = sr
		best = pick(best, i, nl, sr)
	}
	return best, nil
}
