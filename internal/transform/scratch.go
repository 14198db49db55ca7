package transform

import (
	"sync"

	"aigtimer/internal/aig"
	"aigtimer/internal/cut"
)

// moveScratch pools the per-move working state of the transform catalog:
// the cut-enumeration arena and scratch plus the per-node cut index used
// by rewrite/expand, a rebindable simulator for the simulation-driven
// transforms, and the cone-evaluation slab used by refactor. Transforms
// check one out per call and return it on exit, so a retained annealer
// worker reaches a high-water mark once and then drives the whole move
// catalog without re-allocating its big buffers.
type moveScratch struct {
	arena cut.Arena
	cutSc cut.Scratch
	cuts  [][]cut.Cut
	sim   *aig.Simulator
	cone  coneScratch
}

var moveScratchPool = sync.Pool{New: func() any { return new(moveScratch) }}

func getMoveScratch() *moveScratch   { return moveScratchPool.Get().(*moveScratch) }
func putMoveScratch(ms *moveScratch) { moveScratchPool.Put(ms) }

// enumerate is cut.Enumerate backed by the scratch's arena. The returned
// per-node lists alias the arena and die with the move: they are invalid
// after the scratch is returned to the pool.
func (ms *moveScratch) enumerate(g *aig.AIG, p cut.Params) [][]cut.Cut {
	n := g.NumNodes()
	if cap(ms.cuts) >= n {
		ms.cuts = ms.cuts[:n]
	} else {
		ms.cuts = make([][]cut.Cut, n)
	}
	ms.arena.Reset()
	cut.EnumerateArena(g, p, ms.cuts, &ms.arena, &ms.cutSc)
	return ms.cuts
}

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
