package transform

import (
	"sync"

	"aigtimer/internal/aig"
	"aigtimer/internal/cut"
)

// moveScratch pools the per-move working state of the transform catalog:
// the cut enumerator used by rewrite/expand, a rebindable simulator for
// the simulation-driven transforms, and the cone-evaluation slab used by
// refactor. Transforms check one out per call and return it on exit, so
// a retained annealer worker reaches a high-water mark once and then
// drives the whole move catalog without re-allocating its big buffers.
// The cut lists the enumerator returns die with the move: they are
// invalid once the scratch is back in the pool.
type moveScratch struct {
	enum cut.Enumerator
	sim  *aig.Simulator
	cone coneScratch
}

var moveScratchPool = sync.Pool{New: func() any { return new(moveScratch) }}

func getMoveScratch() *moveScratch   { return moveScratchPool.Get().(*moveScratch) }
func putMoveScratch(ms *moveScratch) { moveScratchPool.Put(ms) }

// simulator returns a simulator bound to g, reusing the pooled engine's
// value storage across moves.
func (ms *moveScratch) simulator(g *aig.AIG) *aig.Simulator {
	if ms.sim == nil {
		ms.sim = aig.NewSimulator(g)
		return ms.sim
	}
	return ms.sim.Rebind(g)
}

// exhaustivePatternCache memoizes aig.ExhaustivePatterns per PI count —
// the rows are pure functions of the count and are only read by the
// simulator, so every exhaustive fraig/resub move can share one copy.
var exhaustivePatternCache sync.Map // int -> [][]uint64

// exhaustivePatterns is a cached, shared aig.ExhaustivePatterns. Callers
// must not mutate the returned rows.
func exhaustivePatterns(numPIs int) [][]uint64 {
	if v, ok := exhaustivePatternCache.Load(numPIs); ok {
		return v.([][]uint64)
	}
	p := aig.ExhaustivePatterns(numPIs)
	exhaustivePatternCache.Store(numPIs, p)
	return p
}
