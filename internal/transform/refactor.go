package transform

import (
	"math/rand"
	"slices"

	"aigtimer/internal/aig"
	"aigtimer/internal/truth"
)

// refactorMaxLeaves bounds the reconvergence-driven cut used by Refactor.
// Eight leaves keeps the cone truth table at 4 words.
const refactorMaxLeaves = 8

// Refactor resynthesizes large reconvergence-driven cones (up to
// refactorMaxLeaves leaves) through ISOP factoring, accepting strict
// node-count reductions. It is the analogue of ABC's "refactor" and
// reduces structures that 4-cut rewriting cannot see.
func Refactor(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return applyOne("rf", g, rng)
}

// RefactorZ is Refactor accepting zero-cost replacements (ABC's
// "refactor -z").
func RefactorZ(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return applyOne("rfz", g, rng)
}

func (m *mover) refactor(g *aig.AIG, minGain int) *aig.AIG {
	fo := g.FanoutCounts()
	r := m.rebuild(g)
	sav := m.sav.bind(g)
	mffcHint := m.mffcLowerBound(g, fo)
	isRoot := m.refactorRoots(g, fo)
	for n := g.FirstAnd(); n < int32(g.NumNodes()); n++ {
		f0, f1 := g.Fanins(n)
		// Prefilter: resynthesis is only attempted at cone boundaries
		// (shared nodes and PO drivers — interior fanout-free nodes are
		// covered by their root's cone) whose fanout-free closure is big
		// enough for a gain to be possible. This skips the expensive cone
		// evaluation on the vast majority of nodes.
		if !isRoot[n] || int(mffcHint[n]) < 2-minGain {
			r.copyNode(n, f0, f1)
			continue
		}
		leaves := m.reconvCut(g, n, refactorMaxLeaves, fo)
		if len(leaves) < 3 || len(leaves) > refactorMaxLeaves {
			r.copyNode(n, f0, f1)
			continue
		}
		tt, ok := coneFunction(g, n, leaves, &m.cone)
		if !ok {
			r.copyNode(n, f0, f1)
			continue
		}
		saved := sav.compute(n, leaves, fo)
		// An AIG whose output depends on s inputs has at least s-1 ANDs,
		// and prog.cost() is the AND count of such an AIG, so a cone
		// failing this bound fails the exact test below: skip synthesis.
		if saved-max(supportSize(tt)-1, 0) < minGain {
			r.copyNode(n, f0, f1)
			continue
		}
		prog := coneProg(tt)
		if saved-prog.cost() < minGain {
			r.copyNode(n, f0, f1)
			continue
		}
		m.ins = r.mapLeaves(leaves, m.ins)
		r.m[n] = prog.replay(r.nb, m.ins)
	}
	return m.finish()
}

// supportSize counts the variables tt depends on.
func supportSize(tt truth.TT) int {
	s := 0
	for v := 0; v < tt.N; v++ {
		if tt.DependsOn(v) {
			s++
		}
	}
	return s
}

// mffcLowerBound computes, in m's storage, a fast per-node lower bound
// on the MFFC size: 1 + the bound of every fanout-1 AND fanin (the
// fanout-free chain closure). Nodes whose bound is already large are
// the profitable refactoring roots; the prefilter trades a few missed
// reconvergent opportunities for skipping the expensive cone evaluation
// on most nodes.
func (m *mover) mffcLowerBound(g *aig.AIG, fanouts []int32) []int32 {
	lb := grow(m.mffc, g.NumNodes())
	m.mffc = lb
	for n := g.FirstAnd(); n < int32(g.NumNodes()); n++ {
		f0, f1 := g.Fanins(n)
		v := int32(1)
		for _, f := range [2]aig.Lit{f0, f1} {
			fn := f.Node()
			if g.IsAnd(fn) && fanouts[fn] == 1 {
				v += lb[fn]
			}
		}
		lb[n] = v
	}
	return lb
}

// refactorRoots marks, in m's storage, the cone boundaries: nodes with
// shared fanout or driving a primary output.
func (m *mover) refactorRoots(g *aig.AIG, fanouts []int32) []bool {
	isRoot := grow(m.isRoot, g.NumNodes())
	m.isRoot = isRoot
	clear(isRoot)
	for n := g.FirstAnd(); n < int32(g.NumNodes()); n++ {
		if fanouts[n] != 1 {
			isRoot[n] = true
		}
	}
	for _, po := range g.POs() {
		isRoot[po.Node()] = true
	}
	return isRoot
}

// reconvCut grows a cut from n's fanins, greedily expanding the leaf whose
// replacement by its own fanins increases the leaf count least (preferring
// reconvergence). Expansion stops at the leaf budget. The cut lives in
// m's storage until the next call.
func (m *mover) reconvCut(g *aig.AIG, n int32, maxLeaves int, fanouts []int32) []int32 {
	f0, f1 := g.Fanins(n)
	leaves := addLeaf(addLeaf(m.leaves[:0], f0.Node()), f1.Node())
	// Bound the internal cone so per-node refactoring stays cheap.
	for expansions := 0; expansions < 20; expansions++ {
		best := -1
		bestDelta := 2
		for i, l := range leaves {
			if !g.IsAnd(l) {
				continue
			}
			lf0, lf1 := g.Fanins(l)
			delta := -1
			if !slices.Contains(leaves, lf0.Node()) {
				delta++
			}
			if !slices.Contains(leaves, lf1.Node()) && lf0.Node() != lf1.Node() {
				delta++
			}
			if delta < bestDelta {
				bestDelta = delta
				best = i
			}
		}
		if best < 0 || len(leaves)+bestDelta > maxLeaves {
			break
		}
		l := leaves[best]
		lf0, lf1 := g.Fanins(l)
		leaves[best] = leaves[len(leaves)-1]
		leaves = leaves[:len(leaves)-1]
		leaves = addLeaf(addLeaf(leaves, lf0.Node()), lf1.Node())
	}
	sortAsc(leaves)
	m.leaves = leaves
	return leaves
}

// addLeaf appends x to leaves unless it is there already.
func addLeaf(leaves []int32, x int32) []int32 {
	if slices.Contains(leaves, x) {
		return leaves
	}
	return append(leaves, x)
}

func sortAsc(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// coneScratch holds the truth-table storage for one cone evaluation:
// the visited node ids paired with word slots carved from a flat slab.
// The cone interior is tiny (reconvCut absorbs at most 20 nodes), so
// the memo is a linear id scan; the slab makes repeated evaluations
// allocation-free once warm.
type coneScratch struct {
	ids  []int32
	slab []uint64
}

func (cs *coneScratch) reset() {
	cs.ids = cs.ids[:0]
	cs.slab = cs.slab[:0]
}

// add registers node x and reserves its wpk-word slot, returning the
// memo index. Growing the slab may move it, so slot slices must be
// derived after the add that needs them.
func (cs *coneScratch) add(x int32, wpk int) int {
	cs.ids = append(cs.ids, x)
	n := len(cs.slab)
	if cap(cs.slab) >= n+wpk {
		cs.slab = cs.slab[:n+wpk]
	} else {
		cs.slab = append(cs.slab, make([]uint64, wpk)...)
	}
	return len(cs.ids) - 1
}

func (cs *coneScratch) lookup(x int32) int {
	for i, id := range cs.ids {
		if id == x {
			return i
		}
	}
	return -1
}

func (cs *coneScratch) slot(i, wpk int) []uint64 {
	return cs.slab[i*wpk : (i+1)*wpk]
}

// coneFunction evaluates node n's function over the given cut leaves by
// truth-table propagation through the cone, with all storage coming from
// cs; the returned table aliases cs's slab and is valid only until the
// scratch's next use. It fails (ok=false) when the cone reaches a
// non-leaf PI or the constant node, which indicates the cut is not a
// complete boundary for n. The word-level AND/complement steps mirror
// truth.TT.And/Not exactly (plain full-word ops on replicated tables),
// so the result is bit-identical to the allocating evaluation.
func coneFunction(g *aig.AIG, n int32, leaves []int32, cs *coneScratch) (truth.TT, bool) {
	k := len(leaves)
	wpk := truth.Words(k)
	cs.reset()
	for i, l := range leaves {
		truth.VarInto(cs.slot(cs.add(l, wpk), wpk), k, i)
	}
	e := coneEval{g: g, cs: cs, wpk: wpk}
	i, ok := e.eval(n)
	if !ok {
		return truth.TT{}, false
	}
	return truth.TT{N: k, W: cs.slot(i, wpk)}, true
}

// coneEval is the recursive evaluator behind coneFunction; a named
// method receiver keeps the recursion off the heap, where a recursive
// closure value would escape per call.
type coneEval struct {
	g   *aig.AIG
	cs  *coneScratch
	wpk int
}

func (e *coneEval) eval(x int32) (int, bool) {
	if i := e.cs.lookup(x); i >= 0 {
		return i, true
	}
	if !e.g.IsAnd(x) {
		return 0, false
	}
	f0, f1 := e.g.Fanins(x)
	i0, ok := e.eval(f0.Node())
	if !ok {
		return 0, false
	}
	i1, ok := e.eval(f1.Node())
	if !ok {
		return 0, false
	}
	i := e.cs.add(x, e.wpk)
	a := e.cs.slot(i0, e.wpk)
	b := e.cs.slot(i1, e.wpk)
	out := e.cs.slot(i, e.wpk)
	var m0, m1 uint64
	if f0.IsCompl() {
		m0 = ^uint64(0)
	}
	if f1.IsCompl() {
		m1 = ^uint64(0)
	}
	for w := range out {
		out[w] = (a[w] ^ m0) & (b[w] ^ m1)
	}
	return i, true
}
