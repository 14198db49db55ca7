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

// Catalog lists the basic transforms in a stable order.
func Catalog() []Transform {
	return []Transform{
		{"b", Balance},
		{"br", BalanceRandom},
		{"rw", Rewrite},
		{"rwz", RewriteZ},
		{"rf", Refactor},
		{"rfz", RefactorZ},
		{"rs", Resub},
		{"rsz", ResubZ},
		{"ex", Expand},
		{"fr", MergeEquiv},
	}
}

// byName resolves transform names; built once.
var byName = func() map[string]Func {
	m := make(map[string]Func)
	for _, t := range Catalog() {
		m[t.Name] = t.Fn
	}
	return m
}()

// rebuilder maps an old AIG into a new builder node by node.
type rebuilder struct {
	g  *aig.AIG
	nb *aig.Builder
	m  []aig.Lit // old node index -> new literal (positive phase)
}

func newRebuilder(g *aig.AIG) *rebuilder {
	r := &rebuilder{g: g, nb: aig.NewBuilder(g.NumPIs())}
	r.m = make([]aig.Lit, g.NumNodes())
	r.m[0] = aig.ConstFalse
	for i := 1; i <= g.NumPIs(); i++ {
		r.m[i] = r.nb.PI(i - 1)
	}
	return r
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

// finish maps the POs and returns the compacted result.
func (r *rebuilder) finish() *aig.AIG {
	for _, po := range r.g.POs() {
		r.nb.AddPO(r.lit(po))
	}
	return r.nb.Build().Compact()
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

func newSavings(g *aig.AIG) *savings {
	n := g.NumNodes()
	return &savings{
		g:      g,
		leafEp: make([]int32, n),
		coneEp: make([]int32, n),
		uses:   make([]int32, n),
		usesEp: make([]int32, n),
	}
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

// Named returns the transform with the given catalog name.
func Named(name string) (Func, bool) {
	f, ok := byName[name]
	return f, ok
}
