package signoff

import (
	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/eval"
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

// Evaluate maps g onto lib and returns the signoff metrics.
func Evaluate(g *aig.AIG, lib *cell.Library) (Result, error) {
	r, _, err := EvaluateState(g, lib)
	return r, err
}

// EvalState is the reusable outcome of one full signoff evaluation:
// the mapping state and multi-corner STA of both effort levels. It is
// the anchor the incremental path needs — EvaluateDelta re-evaluates a
// derived graph from it at cone-sized cost. A live EvalState is
// immutable and safe to share across goroutines; one produced by a Pool
// additionally owns recyclable storage (the cut arena, mapping states,
// netlist carcasses, and STA results) that Release hands back for the
// pool's next evaluation to cannibalize.
type EvalState struct {
	g    *aig.AIG
	maps [2]*techmap.State
	srs  [2]*sta.SignoffResult

	// arena backs the retained cut lists of both efforts; cutbufs are
	// the per-effort cut tables the full path enumerates into (the delta
	// path recycles the tables held inside maps instead). Both are
	// reset/regrown at the start of each evaluation into this carcass.
	arena   cut.Arena
	cutbufs [2][][]cut.Cut

	pool     *Pool // owning pool; nil for unpooled states
	released bool
}

// AIG returns the graph this state evaluated.
func (s *EvalState) AIG() *aig.AIG { return s.g }

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

// EvaluateState evaluates g like Evaluate and additionally returns the
// retained state that EvaluateDelta needs to evaluate derived graphs
// incrementally.
//
// Both mapping efforts share one cut enumeration: the default-effort
// cut sets (MaxCuts 8) are selected from the same pairwise merge work
// the high-effort pass (MaxCuts 24) performs, through
// cut.EnumerateDual, whose per-effort output is bit-identical to two
// independent enumerations — so the shared pass changes evaluation
// cost, never the mapping (asserted by TestEvaluateStateMatchesPerEffortMapping).
func EvaluateState(g *aig.AIG, lib *cell.Library) (Result, *EvalState, error) {
	st := &EvalState{}
	r, err := evaluateInto(g, lib, st, &evalScratch{})
	if err != nil {
		return Result{}, nil, err
	}
	return r, st, nil
}

// evaluateInto is the full-evaluation body shared by the plain and
// pooled entry points: it rebuilds st (a fresh or recycled carcass) as
// the evaluation of g, drawing retained storage from st's own arena
// and carcasses and working buffers from sc.
func evaluateInto(g *aig.AIG, lib *cell.Library, st *EvalState, sc *evalScratch) (Result, error) {
	st.g = g
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

// EvaluateDelta evaluates next — a graph rebased against s's graph
// with structural delta d (aig.Rebase) — by incremental remapping and
// incremental multi-corner STA at both effort levels. The returned
// metrics and netlist are bit-identical to a from-scratch
// EvaluateState(next, lib); the cost scales with the dirty cone, not
// the graph. When s came from a Pool, the new state draws its storage
// from the same pool (and must eventually be Released).
func (s *EvalState) EvaluateDelta(next *aig.AIG, d *aig.Delta) (Result, *EvalState, error) {
	var ns *EvalState
	var sc *evalScratch
	if s.pool != nil {
		ns = s.pool.getState()
		sc = s.pool.getScratch()
		defer s.pool.putScratch(sc)
	} else {
		ns = &EvalState{}
		sc = &evalScratch{}
	}
	ns.g = next
	ns.arena.Reset()
	best := Result{}
	for i := range efforts {
		nl, ms, nm, err := techmap.RemapInto(s.maps[i], next, d, &ns.arena, ns.maps[i], &sc.tm)
		if err != nil {
			ns.Release()
			return Result{}, nil, err
		}
		sr, err := sta.SignoffUpdateInto(s.srs[i], nl, nm, sta.SignoffParams{}, ns.srs[i], &sc.sta)
		if err != nil {
			ns.Release()
			return Result{}, nil, err
		}
		ns.maps[i], ns.srs[i] = ms, sr
		best = pick(best, i, nl, sr)
	}
	return best, ns, nil
}

// EvaluateBatch evaluates every graph concurrently on up to `workers`
// goroutines (GOMAXPROCS when workers <= 0) and returns per-graph results
// and errors, both in input order. Values are identical to sequential
// Evaluate calls at any worker count: the pipeline is deterministic and
// each graph is processed by exactly one worker.
func EvaluateBatch(gs []*aig.AIG, lib *cell.Library, workers int) ([]Result, []error) {
	rs := make([]Result, len(gs))
	errs := make([]error, len(gs))
	eval.ForEach(len(gs), workers, func(i int) {
		rs[i], errs[i] = Evaluate(gs[i], lib)
	})
	return rs, errs
}
