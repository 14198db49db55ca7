// Package cut implements k-feasible priority-cut enumeration over AIGs.
//
// A cut of node n is a set of "leaf" nodes such that every path from a
// primary input to n passes through a leaf; the cut's function is n's
// function expressed over the leaves. Cuts are the working unit of both
// cut rewriting (resynthesize the cut function with fewer nodes) and
// structural technology mapping (replace the cut with a library cell whose
// function matches).
//
// The enumeration is the standard bottom-up merge: cuts(n) is the set of
// pairwise unions of cuts(fanin0) × cuts(fanin1) with at most K leaves,
// plus the trivial cut {n}. To bound work, only the MaxCuts best cuts are
// kept per node (priority cuts). K is limited to 4 so that cut functions
// fit in a uint16 truth table.
//
// Allocation model: enumeration distinguishes scratch (candidate pools,
// merge buffers — valid only within one node's merge, reused via Scratch)
// from retained storage (the kept cut lists and their leaf slices, written
// into a caller-owned Arena). A caller that reuses its Arena and Scratch
// across calls pays zero steady-state heap allocations for enumeration;
// the legacy entry points allocate a fresh pair per call and behave as
// before.
package cut

import (
	"slices"

	"aigtimer/internal/aig"
	"aigtimer/internal/truth"
)

// Cut is a k-feasible cut: sorted leaf node indices and the function of
// the root over those leaves, padded to a 4-variable table.
type Cut struct {
	Leaves []int32
	Table  uint16
}

// IsTrivial reports whether the cut is the trivial cut {root}.
func (c Cut) IsTrivial(root int32) bool {
	return len(c.Leaves) == 1 && c.Leaves[0] == root
}

// Params configures enumeration.
type Params struct {
	K       int // max leaves per cut (2..4)
	MaxCuts int // max cuts kept per node (priority cuts)
}

// DefaultParams are suitable for both rewriting and mapping.
var DefaultParams = Params{K: 4, MaxCuts: 8}

// arenaBlock sizes the Arena's allocation blocks, in elements.
const arenaBlock = 4096

// Arena is block-based retained storage for kept cut lists and their
// leaf slices. Blocks are never freed by Reset, so a long-lived Arena
// reaches a high-water mark and then serves every subsequent enumeration
// allocation-free. Slices handed out remain valid until Reset; the owner
// of the enumerated cuts (a techmap state, a rewrite pass) therefore owns
// the Arena and may Reset it only when those cuts are dead.
type Arena struct {
	cutBlocks  [][]Cut
	cutActive  int
	leafBlocks [][]int32
	leafActive int
}

// Reset recycles all storage. Every slice previously returned becomes
// invalid for reuse (contents are clobbered by subsequent allocations).
func (a *Arena) Reset() {
	for i := range a.cutBlocks {
		a.cutBlocks[i] = a.cutBlocks[i][:0]
	}
	for i := range a.leafBlocks {
		a.leafBlocks[i] = a.leafBlocks[i][:0]
	}
	a.cutActive = 0
	a.leafActive = 0
}

// allocCuts returns a zero-length, capacity-n cut slice carved from the
// arena. The three-index slice expression caps it so appends can never
// spill into a neighbour's storage.
func (a *Arena) allocCuts(n int) []Cut {
	for {
		if a.cutActive >= len(a.cutBlocks) {
			sz := arenaBlock
			if n > sz {
				sz = n
			}
			a.cutBlocks = append(a.cutBlocks, make([]Cut, 0, sz))
		}
		blk := a.cutBlocks[a.cutActive]
		if cap(blk)-len(blk) >= n {
			s := blk[len(blk) : len(blk) : len(blk)+n]
			a.cutBlocks[a.cutActive] = blk[: len(blk)+n : cap(blk)]
			return s
		}
		a.cutActive++
	}
}

// allocLeaves returns a zero-length, capacity-n leaf slice from the arena.
func (a *Arena) allocLeaves(n int) []int32 {
	for {
		if a.leafActive >= len(a.leafBlocks) {
			sz := arenaBlock
			if n > sz {
				sz = n
			}
			a.leafBlocks = append(a.leafBlocks, make([]int32, 0, sz))
		}
		blk := a.leafBlocks[a.leafActive]
		if cap(blk)-len(blk) >= n {
			s := blk[len(blk) : len(blk) : len(blk)+n]
			a.leafBlocks[a.leafActive] = blk[: len(blk)+n : cap(blk)]
			return s
		}
		a.leafActive++
	}
}

// AllocCuts returns a zero-length, capacity-n cut slice backed by the
// arena, for callers that build retained cut lists by translation rather
// than enumeration (incremental techmap translating a matched prefix).
func (a *Arena) AllocCuts(n int) []Cut { return a.allocCuts(n) }

// AllocLeaves returns a zero-length, capacity-n leaf slice from the
// arena; see AllocCuts.
func (a *Arena) AllocLeaves(n int) []int32 { return a.allocLeaves(n) }

// copyCut deep-copies one cut into the arena.
func (a *Arena) copyCut(c Cut) Cut {
	l := a.allocLeaves(len(c.Leaves))
	l = append(l, c.Leaves...)
	return Cut{Leaves: l, Table: c.Table}
}

// copyKept copies filter output plus the trailing trivial cut of n into
// one arena-backed list — the retained form of a node's cut list.
func (a *Arena) copyKept(kept []Cut, n int32) []Cut {
	out := a.allocCuts(len(kept) + 1)
	for _, c := range kept {
		out = append(out, a.copyCut(c))
	}
	out = append(out, a.trivialCut(n))
	return out
}

// trivialCut builds the trivial cut {n} with its leaf slice in the arena.
func (a *Arena) trivialCut(n int32) Cut {
	l := a.allocLeaves(1)
	l = append(l, n)
	return Cut{Leaves: l, Table: trivialTable}
}

// Scratch holds enumeration working buffers — candidate pools, the
// stride-4 candidate leaf store, and the dual-enumeration union lists —
// reused across calls. A Scratch serves one enumeration at a time.
type Scratch struct {
	merged     []Cut
	candLeaves []int32 // stride-4 slots; candidate i's leaves live in [4i,4i+4)
	keep       []Cut
	u0, u1     []taggedCut
	poolLow    []Cut
	poolHigh   []Cut
	isPrefix   []bool
}

// ensureCand grows the candidate buffers to hold n candidates, preserving
// nothing: call only before a node's merge loop (growing mid-loop would
// move the leaf store out from under earlier candidates).
func (s *Scratch) ensureCand(n int) {
	if cap(s.candLeaves) < n*4 {
		s.candLeaves = make([]int32, 0, n*4)
	}
	if cap(s.merged) < n {
		s.merged = make([]Cut, 0, n)
	}
	s.merged = s.merged[:0]
	s.candLeaves = s.candLeaves[:0]
}

// candSlot returns the next stride-4 leaf slot. Capacity was reserved by
// ensureCand, so taking a slot never reallocates.
func (s *Scratch) candSlot() []int32 {
	n := len(s.candLeaves)
	s.candLeaves = s.candLeaves[:n+4]
	return s.candLeaves[n : n : n+4]
}

// trivialTable is the projection of a single leaf: variable 0 padded to
// 4 vars.
var trivialTable = truth.PadTo4(0xA, 2)

// Enumerate computes priority cuts for every node of g. The result is
// indexed by node; PIs and the constant node get their trivial cut only.
func Enumerate(g *aig.AIG, p Params) [][]Cut {
	cuts := make([][]Cut, g.NumNodes())
	EnumerateArena(g, p, cuts, new(Arena), new(Scratch))
	return cuts
}

// EnumerateArena is Enumerate with caller-owned storage: kept cuts go to
// a, working buffers come from s, and the per-node lists are written into
// cuts (length g.NumNodes()). Reusing all three across calls makes
// enumeration allocation-free in the steady state.
func EnumerateArena(g *aig.AIG, p Params, cuts [][]Cut, a *Arena, s *Scratch) {
	Seed(g, cuts, a)
	EnumerateSuffixArena(g, p, cuts, g.FirstAnd(), a, s)
}

// Seed fills the constant node's and the PIs' cut lists in cuts, the
// base case of both full and suffix enumeration. cuts must have length
// g.NumNodes(). Leaf storage comes from a.
func Seed(g *aig.AIG, cuts [][]Cut, a *Arena) {
	c0 := a.allocCuts(1)
	cuts[0] = append(c0, Cut{Leaves: nil, Table: 0}) // constant false
	for i := 1; i <= g.NumPIs(); i++ {
		ci := a.allocCuts(1)
		cuts[i] = append(ci, a.trivialCut(int32(i)))
	}
}

// EnumerateSuffix runs the bottom-up cut merge for every AND node with
// index >= first, reading (and trusting) the already-filled entries of
// cuts below first. It is the incremental half of Enumerate: when a
// graph shares a matched prefix with a previously enumerated one
// (aig.Delta), the prefix cuts can be translated and only the dirty
// suffix re-enumerated, with results identical to a full enumeration —
// the merge for a node consults nothing but its fanins' cut lists.
func EnumerateSuffix(g *aig.AIG, p Params, cuts [][]Cut, first int32) {
	EnumerateSuffixArena(g, p, cuts, first, new(Arena), new(Scratch))
}

// EnumerateSuffixArena is EnumerateSuffix with caller-owned retained
// storage and scratch; see EnumerateArena.
func EnumerateSuffixArena(g *aig.AIG, p Params, cuts [][]Cut, first int32, a *Arena, s *Scratch) {
	if p.K < 2 || p.K > 4 {
		panic("cut: K must be in [2,4]")
	}
	if p.MaxCuts < 1 {
		panic("cut: MaxCuts must be positive")
	}
	if first < g.FirstAnd() {
		first = g.FirstAnd()
	}
	for i := int(first); i < g.NumNodes(); i++ {
		n := int32(i)
		f0, f1 := g.Fanins(n)
		c0 := cuts[f0.Node()]
		c1 := cuts[f1.Node()]
		s.ensureCand(len(c0) * len(c1))
		for _, ca := range c0 {
			for _, cb := range c1 {
				leaves, ok := mergeLeaves(ca.Leaves, cb.Leaves, p.K, s.candSlot())
				if !ok {
					continue
				}
				tt := mergeTables(ca, cb, leaves, f0.IsCompl(), f1.IsCompl())
				s.merged = append(s.merged, Cut{Leaves: leaves, Table: tt})
			}
		}
		kept := filter(s.merged, p.MaxCuts, s.keep[:0])
		s.keep = kept
		cuts[n] = a.copyKept(kept, n)
	}
}

// taggedCut is a cut plus its membership in the two lists of a dual
// enumeration.
type taggedCut struct {
	c             Cut
	inLow, inHigh bool
}

// EnumerateDual computes priority cuts for every node of g at two
// budgets in one bottom-up pass, returning what Enumerate(g, pLow) and
// Enumerate(g, pHigh) would return — exactly, list for list. It exists
// for pipelines that map the same graph at two efforts differing only
// in MaxCuts (signoff's default/high passes, MaxCuts 8 vs 24): the two
// budgets' candidate pools overlap almost entirely — the low lists are
// in practice a prefix of the high lists — so the shared pairwise
// merges are computed once instead of twice.
//
// Exactness is by construction, not by assuming the low cuts are a
// subset of the high ones: per node, the fanins' low and high lists are
// unioned with membership tags (two cuts of one node with equal leaves
// have equal tables — the function of a node over a fixed leaf set is
// unique — so leaf equality identifies cuts across lists), each
// distinct fanin pair is merged once, and the product is fed to the low
// pool iff both parents are low-members and to the high pool iff both
// are high-members. Each pool is then exactly the candidate set of the
// corresponding independent enumeration, and filter's selection is a
// function of that set (its order is total on distinct leaf sets and
// duplicates collapse), so the kept lists match independent runs bit
// for bit. The signoff tests assert this equality end to end through
// mapping.
//
// Both params must share K; MaxCuts may differ arbitrarily (neither
// needs to contain the other for correctness).
func EnumerateDual(g *aig.AIG, pLow, pHigh Params) (low, high [][]Cut) {
	low = make([][]Cut, g.NumNodes())
	high = make([][]Cut, g.NumNodes())
	EnumerateDualArena(g, pLow, pHigh, low, high, new(Arena), new(Scratch))
	return low, high
}

// EnumerateDualArena is EnumerateDual with caller-owned storage: the
// kept lists are written into low and high (each of length g.NumNodes())
// with all retained slices carved from a; see EnumerateArena.
func EnumerateDualArena(g *aig.AIG, pLow, pHigh Params, low, high [][]Cut, a *Arena, s *Scratch) {
	if cap(s.isPrefix) < g.NumNodes() {
		s.isPrefix = make([]bool, g.NumNodes())
	}
	isPrefix := s.isPrefix[:g.NumNodes()]
	seedDual(g, pLow, pHigh, low, high, isPrefix, a)
	for i := int(g.FirstAnd()); i < g.NumNodes(); i++ {
		dualNode(g, pLow, pHigh, low, high, isPrefix, int32(i), a, s)
	}
}

// seedDual validates a dual-enumeration parameter pair and seeds the
// base case: the constant node's and the PIs' entries of both lists
// (leaf storage from a) plus the corresponding isPrefix entries.
// isPrefix[n] records that low[n] minus its trivial cut is a prefix of
// high[n] — true for almost every node (both filters walk the same
// sorted candidates, the low one just stops earlier), and the ticket to
// building a node's tagged fanin union without any leaf scanning; PIs
// and the constant hold trivially (identical single-cut lists). low,
// high, and isPrefix must all have length g.NumNodes().
func seedDual(g *aig.AIG, pLow, pHigh Params, low, high [][]Cut, isPrefix []bool, a *Arena) {
	if pLow.K != pHigh.K {
		panic("cut: EnumerateDual requires equal K")
	}
	if pLow.K < 2 || pLow.K > 4 {
		panic("cut: K must be in [2,4]")
	}
	if pLow.MaxCuts < 1 || pHigh.MaxCuts < 1 {
		panic("cut: MaxCuts must be positive")
	}
	Seed(g, low, a)
	Seed(g, high, a)
	for i := range isPrefix {
		isPrefix[i] = i < int(g.FirstAnd())
	}
}

// dualNode runs the dual-budget merge for one AND node n, reading only
// the fanins' entries of low/high/isPrefix and writing only node n's.
// Kept cuts go to a, working buffers come from s.
func dualNode(g *aig.AIG, pLow, pHigh Params, low, high [][]Cut, isPrefix []bool, n int32, a *Arena, s *Scratch) {
	f0, f1 := g.Fanins(n)
	s.u0 = unionCuts(low[f0.Node()], high[f0.Node()], isPrefix[f0.Node()], s.u0[:0])
	s.u1 = unionCuts(low[f1.Node()], high[f1.Node()], isPrefix[f1.Node()], s.u1[:0])
	s.ensureCand(len(s.u0) * len(s.u1))
	s.poolLow, s.poolHigh = s.poolLow[:0], s.poolHigh[:0]
	for _, ta := range s.u0 {
		for _, tb := range s.u1 {
			toLow := ta.inLow && tb.inLow
			toHigh := ta.inHigh && tb.inHigh
			if !toLow && !toHigh {
				continue
			}
			leaves, ok := mergeLeaves(ta.c.Leaves, tb.c.Leaves, pLow.K, s.candSlot())
			if !ok {
				continue
			}
			c := Cut{Leaves: leaves, Table: mergeTables(ta.c, tb.c, leaves, f0.IsCompl(), f1.IsCompl())}
			if toLow {
				s.poolLow = append(s.poolLow, c)
			}
			if toHigh {
				s.poolHigh = append(s.poolHigh, c)
			}
		}
	}
	kl := filter(s.poolLow, pLow.MaxCuts, s.keep[:0])
	s.keep = kl
	low[n] = a.copyKept(kl, n)
	kh := filter(s.poolHigh, pHigh.MaxCuts, s.keep[:0])
	s.keep = kh
	high[n] = a.copyKept(kh, n)
	isPrefix[n] = cutsArePrefix(low[n], high[n])
}

// cutsArePrefix reports whether lo minus its trailing trivial cut is a
// prefix of hi (leaf equality; equal leaves imply equal tables for cuts
// of one node).
func cutsArePrefix(lo, hi []Cut) bool {
	k := len(lo) - 1 // kept cuts, excluding the trailing trivial
	if k > len(hi)-1 {
		return false
	}
	for i := 0; i < k; i++ {
		if !equalLeaves(lo[i].Leaves, hi[i].Leaves) {
			return false
		}
	}
	return true
}

// unionCuts merges one node's low and high cut lists into a list of
// distinct cuts tagged with membership, reusing buf. Identity is leaf
// equality (equal leaves imply equal tables for cuts of one node). When
// the low list is a known prefix of the high one, the union is the high
// list with the first k cuts and the trailing trivial tagged low — no
// scanning.
func unionCuts(lo, hi []Cut, loIsPrefix bool, buf []taggedCut) []taggedCut {
	if loIsPrefix {
		k := len(lo) - 1
		for i, c := range hi {
			buf = append(buf, taggedCut{c: c, inHigh: true, inLow: i < k || i == len(hi)-1})
		}
		return buf
	}
	for _, c := range hi {
		buf = append(buf, taggedCut{c: c, inHigh: true})
	}
	for _, c := range lo {
		found := false
		for i := range buf {
			if equalLeaves(buf[i].c.Leaves, c.Leaves) {
				buf[i].inLow = true
				found = true
				break
			}
		}
		if !found {
			buf = append(buf, taggedCut{c: c, inLow: true})
		}
	}
	return buf
}

// mergeLeaves unions two sorted leaf sets into out (a zero-length slice
// with capacity ≥ k), failing when the union exceeds k.
func mergeLeaves(a, b []int32, k int, out []int32) ([]int32, bool) {
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int32
		switch {
		case i == len(a):
			v = b[j]
			j++
		case j == len(b):
			v = a[i]
			i++
		case a[i] < b[j]:
			v = a[i]
			i++
		case a[i] > b[j]:
			v = b[j]
			j++
		default:
			v = a[i]
			i++
			j++
		}
		if len(out) == k {
			return nil, false
		}
		out = append(out, v)
	}
	return out, true
}

// mergeTables computes the AND-node function over the union leaves.
func mergeTables(a, b Cut, leaves []int32, inv0, inv1 bool) uint16 {
	ta := expand(a, leaves)
	tb := expand(b, leaves)
	if inv0 {
		ta = ^ta
	}
	if inv1 {
		tb = ^tb
	}
	return ta & tb
}

// expand rewires a cut's table from its own leaves to positions within
// the union leaf set. Both leaf sets are sorted, so the rewiring is a
// monotone variable expansion; lifting each variable into place with
// adjacent-position delta swaps (at most six for 4-variable tables) is
// an order of magnitude cheaper than the general TransformPins minterm
// loop, and this is the innermost operation of cut enumeration.
func expand(c Cut, leaves []int32) uint16 {
	t := c.Table
	// Place variables from the top so every swap on the way up crosses
	// only padding positions (the padded table is invariant under them,
	// but the swaps are exact regardless).
	for j := len(c.Leaves) - 1; j >= 0; j-- {
		p := indexOf(leaves, c.Leaves[j])
		for q := j; q < p; q++ {
			t = swapAdjacent(t, q)
		}
	}
	return t
}

// adjSwapMasks[q] partitions the 16 minterms for exchanging variables q
// and q+1 of a 4-variable table: minterms with bit q set and bit q+1
// clear move up by 1<<q, their mirrors move down, the rest stay.
var adjSwapMasks = [3]struct {
	keep, up, down uint16
	shift          uint
}{
	{0x9999, 0x2222, 0x4444, 1},
	{0xC3C3, 0x0C0C, 0x3030, 2},
	{0xF00F, 0x00F0, 0x0F00, 4},
}

// swapAdjacent exchanges variables q and q+1 of a 4-variable table.
func swapAdjacent(t uint16, q int) uint16 {
	m := &adjSwapMasks[q]
	return t&m.keep | t&m.up<<m.shift | t&m.down>>m.shift
}

func indexOf(s []int32, v int32) int {
	for i, x := range s {
		if x == v {
			return i
		}
	}
	panic("cut: leaf not in union")
}

// filter deduplicates, removes dominated cuts (a cut is dominated when a
// strict subset of its leaves is also a cut), sorts by leaf count, and
// keeps at most maxCuts, appending survivors to out. The sort order is
// total on distinct leaf sets and cuts with equal leaves are identical
// values, so the unstable sort cannot affect the selection.
func filter(cs []Cut, maxCuts int, out []Cut) []Cut {
	slices.SortFunc(cs, func(a, b Cut) int {
		if len(a.Leaves) != len(b.Leaves) {
			return len(a.Leaves) - len(b.Leaves)
		}
		return slices.Compare(a.Leaves, b.Leaves)
	})
	for _, c := range cs {
		if containsEqual(out, c) || dominated(out, c) {
			continue
		}
		out = append(out, c)
		if len(out) == maxCuts {
			break
		}
	}
	return out
}

func containsEqual(cs []Cut, c Cut) bool {
	for _, x := range cs {
		if equalLeaves(x.Leaves, c.Leaves) {
			return true
		}
	}
	return false
}

func equalLeaves(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// dominated reports whether some kept cut's leaves are a subset of c's.
func dominated(kept []Cut, c Cut) bool {
	for _, x := range kept {
		if len(x.Leaves) < len(c.Leaves) && subset(x.Leaves, c.Leaves) {
			return true
		}
	}
	return false
}

// subset reports whether sorted a ⊆ sorted b.
func subset(a, b []int32) bool {
	i := 0
	for _, v := range b {
		if i < len(a) && a[i] == v {
			i++
		}
	}
	return i == len(a)
}
