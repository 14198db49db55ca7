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

// highEffort is the second mapping configuration.
var highEffort = techmap.Params{
	Cut:           cut.Params{K: 4, MaxCuts: 24},
	NominalLoadFF: 6.0,
	AreaRecovery:  true,
}

// efforts lists the mapping configurations one evaluation runs, in
// reporting order (the first wins delay/area ties).
var efforts = [2]techmap.Params{techmap.DefaultParams, highEffort}

// Evaluate maps g onto lib and returns the signoff metrics. It
// allocates fresh storage per call; Pool.EvaluateState computes the
// same result from recycled storage.
func Evaluate(g *aig.AIG, lib *cell.Library) (Result, error) {
	return evaluateInto(g, lib, &EvalState{}, &evalScratch{})
}

// EvalState is the storage of one pooled signoff evaluation: the cut
// lists, mapping states, netlists, and multi-corner STA of both effort
// levels. The Result a pooled evaluation returns points into it (its
// Netlist is one of the state's), so the state stays live until
// Release hands it back for the pool's next evaluation to cannibalize.
type EvalState struct {
	maps [2]*techmap.State
	srs  [2]*sta.SignoffResult

	// arena backs the cut lists of both efforts; cutbufs are the
	// per-effort cut tables enumeration writes into. Both are
	// reset/regrown at the start of each evaluation into this carcass.
	arena   cut.Arena
	cutbufs [2][][]cut.Cut

	pool     *Pool // owning pool; nil for unpooled states
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

// growCutLists returns b resized to n entries, all nil.
func growCutLists(b [][]cut.Cut, n int) [][]cut.Cut {
	if cap(b) < n {
		return make([][]cut.Cut, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = nil
	}
	return b
}

// evaluateInto is the evaluation body shared by the plain and pooled
// entry points: it rebuilds st (a fresh or recycled carcass) as the
// evaluation of g, drawing retained storage from st's own arena and
// carcasses and working buffers from sc.
//
// Both mapping efforts share one cut enumeration: the default-effort
// cut sets (MaxCuts 8) are selected from the same pairwise merge work
// the high-effort pass (MaxCuts 24) performs, through
// cut.EnumerateDual, whose per-effort output is bit-identical to two
// independent enumerations — so the shared pass changes evaluation
// cost, never the mapping (asserted by TestEvaluateStateMatchesPerEffortMapping).
func evaluateInto(g *aig.AIG, lib *cell.Library, st *EvalState, sc *evalScratch) (Result, error) {
	st.arena.Reset()
	n := g.NumNodes()
	st.cutbufs[0] = growCutLists(st.cutbufs[0], n)
	st.cutbufs[1] = growCutLists(st.cutbufs[1], n)
	cut.EnumerateDualArena(g, efforts[0].Cut, efforts[1].Cut, st.cutbufs[0], st.cutbufs[1], &st.arena, &sc.cuts)
	best := Result{}
	for i, mp := range efforts {
		nl, ms, err := techmap.MapStateWithCutsInto(g, lib, mp, st.cutbufs[i], st.maps[i], &sc.tm)
		if err != nil {
			return Result{}, err
		}
		sr, err := sta.SignoffInto(nl, sta.SignoffParams{}, st.srs[i])
		if err != nil {
			return Result{}, err
		}
		st.maps[i], st.srs[i] = ms, sr
		best = pick(best, i, nl, sr)
	}
	return best, nil
}
