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
// State is reused across calls via epoch tagging because rewriting queries
// it for every cut of every node.
type savings struct {
	g      *aig.AIG
	epoch  int32
	leafEp []int32 // node marked as cut leaf this epoch
	coneEp []int32 // node collected into the cone this epoch
	uses   []int32 // fanin references from saved nodes (valid if usesEp)
	usesEp []int32
	stack  []int32
	cone   []int32
}

// bind points s at g, restarting the epochs over its nodes.
func (s *savings) bind(g *aig.AIG) *savings {
	n := g.NumNodes()
	s.g = g
	s.epoch = 0
	s.leafEp = grow(s.leafEp, n)
	s.coneEp = grow(s.coneEp, n)
	s.uses = grow(s.uses, n)
	s.usesEp = grow(s.usesEp, n)
	clear(s.leafEp)
	clear(s.coneEp)
	clear(s.usesEp)
	return s
}

func (s *savings) addUse(x int32, e int32) {
	if s.usesEp[x] != e {
		s.usesEp[x] = e
		s.uses[x] = 0
	}
	s.uses[x]++
}

// compute returns the saved-node count for reimplementing n over leaves.
func (s *savings) compute(n int32, leaves []int32, fanouts []int32) int {
	g := s.g
	s.epoch++
	e := s.epoch
	for _, l := range leaves {
		s.leafEp[l] = e
	}
	// Collect the cone (ANDs strictly between leaves and n, plus n).
	s.cone = s.cone[:0]
	s.stack = append(s.stack[:0], n)
	s.coneEp[n] = e
	for len(s.stack) > 0 {
		c := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		s.cone = append(s.cone, c)
		cf0, cf1 := g.Fanins(c)
		for _, f := range [2]aig.Lit{cf0, cf1} {
			fn := f.Node()
			if s.leafEp[fn] == e || !g.IsAnd(fn) || s.coneEp[fn] == e {
				continue
			}
			s.coneEp[fn] = e
			s.stack = append(s.stack, fn)
		}
	}
	// Reverse-topological MFFC within the cone: nodes are saved when all
	// fanout references come from already-saved nodes.
	sortDesc(s.cone)
	f0, f1 := g.Fanins(n)
	s.addUse(f0.Node(), e)
	s.addUse(f1.Node(), e)
	count := 1
	for _, c := range s.cone {
		if c == n {
			continue
		}
		refs := int32(0)
		if s.usesEp[c] == e {
			refs = s.uses[c]
		}
		if refs == fanouts[c] {
			cf0, cf1 := g.Fanins(c)
			s.addUse(cf0.Node(), e)
			s.addUse(cf1.Node(), e)
			count++
		}
	}
	return count
}

func sortDesc(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] > s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// synthCost returns the standalone AND-node cost of implementing a
// k-leaf cut function, served from the synthesis-program cache.
func synthCost(table uint16, k int) int {
	return cutProg(table, k).cost()
}
