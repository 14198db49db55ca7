package transform

import (
	"math/rand"

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
	return refactorImpl(g, rng, 1)
}

// RefactorZ is Refactor accepting zero-cost replacements (ABC's
// "refactor -z").
func RefactorZ(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return refactorImpl(g, rng, 0)
}

func refactorImpl(g *aig.AIG, rng *rand.Rand, minGain int) *aig.AIG {
	ms := getMoveScratch()
	defer putMoveScratch(ms)
	fo := g.FanoutCounts()
	r := newRebuilder(g)
	sav := newSavings(g)
	mffcHint := mffcLowerBound(g, fo)
	isRoot := refactorRoots(g, fo)
	var ins []aig.Lit
	g.TopoForEachAnd(func(n int32, f0, f1 aig.Lit) {
		// Prefilter: resynthesis is only attempted at cone boundaries
		// (shared nodes and PO drivers — interior fanout-free nodes are
		// covered by their root's cone) whose fanout-free closure is big
		// enough for a gain to be possible. This skips the expensive cone
		// evaluation on the vast majority of nodes.
		if !isRoot[n] || int(mffcHint[n]) < 2-minGain {
			r.copyNode(n, f0, f1)
			return
		}
		leaves := reconvCut(g, n, refactorMaxLeaves, fo)
		if len(leaves) < 3 || len(leaves) > refactorMaxLeaves {
			r.copyNode(n, f0, f1)
			return
		}
		tt, ok := coneFunction(g, n, leaves, &ms.cone)
		if !ok {
			r.copyNode(n, f0, f1)
			return
		}
		saved := sav.compute(n, leaves, fo)
		// An AIG whose output depends on s inputs has at least s-1 ANDs,
		// and prog.cost() is the AND count of such an AIG, so a cone
		// failing this bound fails the exact test below: skip synthesis.
		if saved-max(supportSize(tt)-1, 0) < minGain {
			r.copyNode(n, f0, f1)
			return
		}
		prog := coneProg(tt)
		if saved-prog.cost() < minGain {
			r.copyNode(n, f0, f1)
			return
		}
		ins = r.mapLeaves(leaves, ins)
		r.m[n] = prog.replay(r.nb, ins)
	})
	return r.finish()
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

// mffcLowerBound computes a fast per-node lower bound on the MFFC size:
// 1 + the bound of every fanout-1 AND fanin (the fanout-free chain
// closure). Nodes whose bound is already large are the profitable
// refactoring roots; the prefilter trades a few missed reconvergent
// opportunities for skipping the expensive cone evaluation on most nodes.
func mffcLowerBound(g *aig.AIG, fanouts []int32) []int32 {
	lb := make([]int32, g.NumNodes())
	g.TopoForEachAnd(func(n int32, f0, f1 aig.Lit) {
		v := int32(1)
		for _, f := range [2]aig.Lit{f0, f1} {
			fn := f.Node()
			if g.IsAnd(fn) && fanouts[fn] == 1 {
				v += lb[fn]
			}
		}
		lb[n] = v
	})
	return lb
}

// refactorRoots marks cone boundaries: nodes with shared fanout or
// driving a primary output.
func refactorRoots(g *aig.AIG, fanouts []int32) []bool {
	isRoot := make([]bool, g.NumNodes())
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
// reconvergence). Expansion stops at the leaf budget.
func reconvCut(g *aig.AIG, n int32, maxLeaves int, fanouts []int32) []int32 {
	f0, f1 := g.Fanins(n)
	leaves := make([]int32, 0, maxLeaves+1)
	contains := func(x int32) bool {
		for _, l := range leaves {
			if l == x {
				return true
			}
		}
		return false
	}
	add := func(x int32) {
		if !contains(x) {
			leaves = append(leaves, x)
		}
	}
	add(f0.Node())
	add(f1.Node())
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
			if !contains(lf0.Node()) {
				delta++
			}
			if !contains(lf1.Node()) && lf0.Node() != lf1.Node() {
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
		add(lf0.Node())
		add(lf1.Node())
	}
	sortAsc(leaves)
	return leaves
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
