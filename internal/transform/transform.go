package transform

import (
	"math/rand"

	"aigtimer/internal/aig"
)

// Func is a single AIG transformation.
type Func func(g *aig.AIG, rng *rand.Rand) *aig.AIG

// Transform is a named transformation.
type Transform struct {
	Name string
	Fn   Func
}

// basics lists the basic transforms in catalog order, each as the step
// a mover runs.
var basics = [...]struct {
	name string
	step step
}{
	{"b", func(m *mover, g *aig.AIG, rng *rand.Rand) *aig.AIG { return m.balance(g, rng, false) }},
	{"br", func(m *mover, g *aig.AIG, rng *rand.Rand) *aig.AIG { return m.balance(g, rng, true) }},
	{"rw", func(m *mover, g *aig.AIG, rng *rand.Rand) *aig.AIG { return m.rewrite(g, rng, 1) }},
	{"rwz", func(m *mover, g *aig.AIG, rng *rand.Rand) *aig.AIG { return m.rewrite(g, rng, 0) }},
	{"rf", func(m *mover, g *aig.AIG, _ *rand.Rand) *aig.AIG { return m.refactor(g, 1) }},
	{"rfz", func(m *mover, g *aig.AIG, _ *rand.Rand) *aig.AIG { return m.refactor(g, 0) }},
	{"rs", func(m *mover, g *aig.AIG, rng *rand.Rand) *aig.AIG { return m.resub(g, rng, 1) }},
	{"rsz", func(m *mover, g *aig.AIG, rng *rand.Rand) *aig.AIG { return m.resub(g, rng, 0) }},
	{"ex", (*mover).expand},
	{"fr", (*mover).mergeEquiv},
}

// basicIndex returns the index in basics of the named transform, or -1.
func basicIndex(name string) int {
	for i := range basics {
		if basics[i].name == name {
			return i
		}
	}
	return -1
}

// Catalog lists the basic transforms in a stable order.
func Catalog() []Transform {
	out := make([]Transform, len(basics))
	for i := range basics {
		out[i] = Transform{basics[i].name, basicFunc(basics[i].name)}
	}
	return out
}

// Named returns the transform with the given catalog name.
func Named(name string) (Func, bool) {
	if basicIndex(name) < 0 {
		return nil, false
	}
	return basicFunc(name), true
}

// basicFunc returns the named basic transform as a Func.
func basicFunc(name string) Func {
	return func(g *aig.AIG, rng *rand.Rand) *aig.AIG { return applyOne(name, g, rng) }
}

// rebuilder maps an old AIG into a new builder node by node; a mover
// holds one and starts it with rebuild.
type rebuilder struct {
	g  *aig.AIG
	nb *aig.Builder
	m  []aig.Lit // old node index -> new literal (positive phase)
}

// lit maps an old literal to the new graph.
func (r *rebuilder) lit(old aig.Lit) aig.Lit {
	return r.m[old.Node()].NotIf(old.IsCompl())
}

// copyNode gives node n its default implementation: the AND of its mapped
// fanins.
func (r *rebuilder) copyNode(n int32, f0, f1 aig.Lit) {
	r.m[n] = r.nb.And(r.lit(f0), r.lit(f1))
}

// mapLeaves returns the new literals of the given old nodes, in order,
// reusing buf's storage.
func (r *rebuilder) mapLeaves(leaves []int32, buf []aig.Lit) []aig.Lit {
	buf = buf[:0]
	for _, l := range leaves {
		buf = append(buf, r.m[l])
	}
	return buf
}

// savings computes, allocation-free, the number of AND nodes that
// disappear if a node's function is reimplemented over a cut: the maximum
// fanout-free cone of the node restricted to the cut (the node itself plus
// every cone node all of whose fanout references come from saved nodes).
// It counts by dereference: each fanin of a saved node that is an AND and
// not a leaf gains a use, and is saved in turn once its uses reach its
// fanout count. State is reused across calls via epoch tagging because
// rewriting queries it for every cut of every node.
type savings struct {
	g      *aig.AIG
	epoch  int32
	leafEp []int32 // node marked as cut leaf this epoch
	uses   []int32 // fanin references from saved nodes (valid if usesEp)
	usesEp []int32
}

// bind points s at g, restarting the epochs over its nodes.
func (s *savings) bind(g *aig.AIG) *savings {
	n := g.NumNodes()
	s.g = g
	s.epoch = 0
	s.leafEp = grow(s.leafEp, n)
	s.uses = grow(s.uses, n)
	s.usesEp = grow(s.usesEp, n)
	clear(s.leafEp)
	clear(s.usesEp)
	return s
}

// compute returns the saved-node count for reimplementing n over leaves.
func (s *savings) compute(n int32, leaves []int32, fanouts []int32) int {
	s.epoch++
	for _, l := range leaves {
		s.leafEp[l] = s.epoch
	}
	return s.deref(n, fanouts)
}

// deref saves n: it counts n plus whatever dereferencing n's fanins
// saves in turn.
func (s *savings) deref(n int32, fanouts []int32) int {
	e := s.epoch
	count := 1
	f0, f1 := s.g.Fanins(n)
	for _, f := range [2]aig.Lit{f0, f1} {
		fn := f.Node()
		if s.leafEp[fn] == e || !s.g.IsAnd(fn) {
			continue
		}
		if s.usesEp[fn] != e {
			s.usesEp[fn] = e
			s.uses[fn] = 0
		}
		s.uses[fn]++
		if s.uses[fn] == fanouts[fn] {
			count += s.deref(fn, fanouts)
		}
	}
	return count
}
