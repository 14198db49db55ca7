package transform

import (
	"fmt"
	"math/rand"
	"sync"

	"aigtimer/internal/aig"
	"aigtimer/internal/cut"
)

// mover is the retained working state of one recipe application: the
// transform layer's single scratch-owning entry point. Recipe.Apply,
// Recipe.ApplyTracked and each catalog Func take one from moverPool for
// the whole call and run every step on it.
//
// A step reads its input graph, rebuilds it into raw and compacts that
// into out, so every intermediate graph of a recipe — with its level
// and fanout caches — lives in the two builders' storage, and the next
// step reads it there. Only the recipe's final graph is allocated: a
// copy of out's graph for Apply, the rebased graph and its Delta for
// ApplyTracked. A warm mover allocates nothing else, except a synthesis
// program the process-wide caches do not hold yet, which it records in
// its own retained scratch.
//
// Every table is sized to the graph in hand when a step starts, so a
// mover that once served a large design spends no more time on a small
// one than a fresh mover would.
type mover struct {
	raw, out aig.Builder // a step's rebuild and its compaction
	rb       rebuilder
	sav      savings
	enum     cut.Enumerator
	sim      *aig.Simulator
	ver      verifier
	cone     coneScratch
	rec      recorder // records synthesis programs the caches miss

	// per-node tables of the step's input graph
	mffc   []int32
	isRoot []bool
	done   []bool

	lits   []aig.Lit // balance's conjuncts, a stack across its recursion
	ins    []aig.Lit // mapped cut leaves
	cuts   []cut.Cut // rewrite's tied best cuts, expand's options
	pool   []int32   // resub's divisors
	leaves []int32   // refactor's reconvergence-driven cut

	sigs    map[uint64]sigClass // fraig's classes, resub's 0-resub index
	sigsMax int                 // most entries sigs has held
	simRng  *rand.Rand          // reseeded for each random simulation
	pats    [][]uint64          // its patterns
}

var moverPool = sync.Pool{New: func() any { return new(mover) }}

// step is a basic transform run on a mover: it rebuilds g and returns
// the compacted result, which lives in the mover until its next step.
type step func(m *mover, g *aig.AIG, rng *rand.Rand) *aig.AIG

// run applies r's steps to g and returns the result: g itself when r
// has no steps, out's graph otherwise.
func (m *mover) run(r Recipe, g *aig.AIG, rng *rand.Rand) *aig.AIG {
	for _, s := range r.Steps {
		i := basicIndex(s)
		if i < 0 {
			panic(fmt.Sprintf("transform: recipe %s references unknown step %q", r.Name, s))
		}
		g = basics[i].step(m, g, rng)
	}
	return g
}

// apply is Recipe.Apply on m.
func (m *mover) apply(r Recipe, g *aig.AIG, rng *rand.Rand) *aig.AIG {
	if out := m.run(r, g, rng); out != g {
		return out.Copy()
	}
	return g
}

// applyTracked is Recipe.ApplyTracked on m.
func (m *mover) applyTracked(r Recipe, g *aig.AIG, rng *rand.Rand) (*aig.AIG, *aig.Delta) {
	return m.raw.Rebase(g, m.run(r, g, rng))
}

// applyOne runs the named basic transform on a pooled mover.
func applyOne(name string, g *aig.AIG, rng *rand.Rand) *aig.AIG {
	m := moverPool.Get().(*mover)
	defer moverPool.Put(m)
	return m.apply(Recipe{Name: name, Steps: []string{name}}, g, rng)
}

// rebuild starts a step's rebuild of g into raw.
func (m *mover) rebuild(g *aig.AIG) *rebuilder {
	r := &m.rb
	r.g, r.nb = g, &m.raw
	r.nb.Reset(g.NumPIs(), g.NumAnds())
	r.m = grow(r.m, g.NumNodes())
	r.m[0] = aig.ConstFalse
	for i := 1; i <= g.NumPIs(); i++ {
		r.m[i] = r.nb.PI(i - 1)
	}
	return r
}

// finish maps the POs of the step's input and returns the compaction of
// the rebuild, in out. The input graph is dead from here on: it may be
// out's previous graph.
func (m *mover) finish() *aig.AIG {
	r := &m.rb
	for _, po := range r.g.POs() {
		r.nb.AddPO(r.lit(po))
	}
	return m.out.Compact(r.nb.Graph())
}

// simulator returns a simulator bound to g, reusing the engine's value
// storage across steps.
func (m *mover) simulator(g *aig.AIG) *aig.Simulator {
	if m.sim == nil {
		m.sim = aig.NewSimulator(g)
		return m.sim
	}
	return m.sim.Rebind(g)
}

// randomPatterns returns numPIs rows of words random words, the values
// aig.RandomPatterns draws from rand.New(rand.NewSource(seed)), in m's
// retained rows and from its reseeded generator.
func (m *mover) randomPatterns(numPIs, words int, seed int64) [][]uint64 {
	if m.simRng == nil {
		m.simRng = rand.New(rand.NewSource(seed))
	} else {
		m.simRng.Seed(seed)
	}
	m.pats = grow(m.pats, numPIs)
	for i := range m.pats {
		row := grow(m.pats[i], words)
		for w := range row {
			row[w] = m.simRng.Uint64()
		}
		m.pats[i] = row
	}
	return m.pats
}

// sigClass is a simulation-signature class: its first node and that
// node's canonical phase.
type sigClass struct {
	rep   int32
	phase bool
}

// resetSigs returns m.sigs emptied for a graph of n nodes. Clearing a
// map costs its capacity, which only grows, so a map that once held far
// more entries than n is replaced instead.
func (m *mover) resetSigs(n int) map[uint64]sigClass {
	m.sigsMax = max(m.sigsMax, len(m.sigs))
	if m.sigs == nil || m.sigsMax > 4*n+1024 {
		m.sigs = make(map[uint64]sigClass, n)
		m.sigsMax = n
	} else {
		clear(m.sigs)
	}
	return m.sigs
}

// grow returns s with length n, reusing its storage when it is large
// enough. Its contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
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
