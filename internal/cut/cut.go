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
// Allocation model: a Cut is a fixed-width value (at most four leaves held
// inline, plus their signature and the table), so merging, filtering and
// copying cuts never allocate. An Enumerator owns everything else: the
// kept per-node lists, carved from blocks it retains, and the working
// buffers of one node's merge. The lists a call returns are valid until
// the Enumerator's next call, and a warm Enumerator enumerates without
// heap allocations.
package cut

import (
	"math/bits"
	"slices"

	"aigtimer/internal/aig"
	"aigtimer/internal/truth"
)

// Cut is a k-feasible cut: up to four sorted leaf node indices and the
// function of the root over those leaves, padded to a 4-variable table.
// It is a plain value. The leaves are read through Size, Leaf and Leaves
// and set only by New and by enumeration, which keep them sorted and
// keep the leaf signature in step with them.
type Cut struct {
	// sig is the leaf signature: the OR of 1<<(leaf&63) over the leaves.
	// Its popcount is a lower bound on the leaf count of any union, and
	// a set bit missing from another cut's signature disproves subset.
	sig    uint64
	leaves [4]int32 // sorted ascending; entries at n and above are zero
	n      uint8
	Table  uint16
}

// New returns the cut with the given leaves and table. leaves must be
// sorted ascending and hold at most four entries.
func New(leaves []int32, table uint16) Cut {
	c := Cut{n: uint8(len(leaves)), Table: table}
	if len(leaves) > len(c.leaves) {
		panic("cut: more than four leaves")
	}
	copy(c.leaves[:], leaves)
	for _, l := range leaves {
		c.sig |= 1 << (uint32(l) & 63)
	}
	return c
}

// Size returns the number of leaves.
func (c *Cut) Size() int { return int(c.n) }

// Leaf returns the i-th smallest leaf; i must be below Size.
func (c *Cut) Leaf(i int) int32 { return c.leaves[i] }

// Leaves returns the sorted leaves as a slice of the cut's own storage,
// valid as long as the cut is.
func (c *Cut) Leaves() []int32 { return c.leaves[:c.n] }

// IsTrivial reports whether the cut is the trivial cut {root}.
func (c *Cut) IsTrivial(root int32) bool {
	return c.n == 1 && c.leaves[0] == root
}

// Params configures enumeration.
type Params struct {
	K       int // max leaves per cut (2..4)
	MaxCuts int // max cuts kept per node (priority cuts)
}

// DefaultParams are suitable for both rewriting and mapping.
var DefaultParams = Params{K: 4, MaxCuts: 8}

// arenaBlock sizes the Enumerator's blocks of retained cut storage, in
// cuts.
const arenaBlock = 4096

// Enumerator computes priority cuts into storage it owns: the kept
// per-node cut lists, carved from blocks of retained storage, the
// per-node list tables, and the working buffers of one node's merge
// (candidate pools and the dual-enumeration union lists). Blocks are
// never freed, so a long-lived Enumerator reaches a high-water mark and
// then enumerates without allocating. The lists a call returns stay
// valid until the Enumerator's next call. The zero Enumerator is ready
// to use; it serves one enumeration at a time.
type Enumerator struct {
	blocks [][]Cut
	active int
	lists  [2][][]Cut // per-node list tables: the single or low lists, then the high lists

	merged   []Cut
	keep     []Cut
	u0, u1   []taggedCut
	poolLow  []Cut
	poolHigh []Cut
	isPrefix []bool
}

// reset recycles all retained storage for an enumeration of an n-node
// graph and sizes the first k list tables to n; the enumeration writes
// every entry before it returns.
func (e *Enumerator) reset(n, k int) {
	for i := range e.blocks {
		e.blocks[i] = e.blocks[i][:0]
	}
	e.active = 0
	for i := 0; i < k; i++ {
		if cap(e.lists[i]) < n {
			e.lists[i] = make([][]Cut, n)
		}
		e.lists[i] = e.lists[i][:n]
	}
}

// allocCuts returns a zero-length, capacity-n cut slice carved from the
// retained blocks. The three-index slice expression caps it so appends
// can never spill into a neighbour's storage.
func (e *Enumerator) allocCuts(n int) []Cut {
	for {
		if e.active >= len(e.blocks) {
			e.blocks = append(e.blocks, make([]Cut, 0, max(n, arenaBlock)))
		}
		blk := e.blocks[e.active]
		if cap(blk)-len(blk) >= n {
			s := blk[len(blk) : len(blk) : len(blk)+n]
			e.blocks[e.active] = blk[: len(blk)+n : cap(blk)]
			return s
		}
		e.active++
	}
}

// copyKept copies filter output plus the trailing trivial cut of n into
// one retained list — the kept form of a node's cut list.
func (e *Enumerator) copyKept(kept []Cut, n int32) []Cut {
	out := e.allocCuts(len(kept) + 1)
	out = append(out, kept...)
	return append(out, trivialCut(n))
}

// trivialTable is the projection of a single leaf: variable 0 padded to
// 4 vars.
var trivialTable = truth.PadTo4(0xA, 2)

// trivialCut returns the trivial cut {n}.
func trivialCut(n int32) Cut {
	return Cut{sig: 1 << (uint32(n) & 63), leaves: [4]int32{n}, n: 1, Table: trivialTable}
}

// checkParams panics on a budget enumeration does not support.
func checkParams(p Params) {
	if p.K < 2 || p.K > 4 {
		panic("cut: K must be in [2,4]")
	}
	if p.MaxCuts < 1 {
		panic("cut: MaxCuts must be positive")
	}
}

// Enumerate computes priority cuts for every node of g. The result is
// indexed by node; PIs and the constant node get their trivial cut only.
func (e *Enumerator) Enumerate(g *aig.AIG, p Params) [][]Cut {
	checkParams(p)
	e.reset(g.NumNodes(), 1)
	cuts := e.lists[0]
	e.seed(g, cuts)
	for i := int(g.FirstAnd()); i < g.NumNodes(); i++ {
		n := int32(i)
		f0, f1 := g.Fanins(n)
		c0 := cuts[f0.Node()]
		c1 := cuts[f1.Node()]
		e.merged = e.merged[:0]
		for x := range c0 {
			for y := range c1 {
				if c, ok := merge(&c0[x], &c1[y], p.K, f0.IsCompl(), f1.IsCompl()); ok {
					e.merged = append(e.merged, c)
				}
			}
		}
		e.keep = filter(e.merged, p.MaxCuts, e.keep[:0])
		cuts[n] = e.copyKept(e.keep, n)
	}
	return cuts
}

// seed fills the constant node's and the PIs' cut lists in cuts, the
// base case of enumeration.
func (e *Enumerator) seed(g *aig.AIG, cuts [][]Cut) {
	cuts[0] = append(e.allocCuts(1), Cut{}) // constant false
	for i := 1; i <= g.NumPIs(); i++ {
		cuts[i] = append(e.allocCuts(1), trivialCut(int32(i)))
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
func (e *Enumerator) EnumerateDual(g *aig.AIG, pLow, pHigh Params) (low, high [][]Cut) {
	if pLow.K != pHigh.K {
		panic("cut: EnumerateDual requires equal K")
	}
	checkParams(pLow)
	checkParams(pHigh)
	n := g.NumNodes()
	e.reset(n, 2)
	low, high = e.lists[0], e.lists[1]
	e.seed(g, low)
	e.seed(g, high)
	// isPrefix[n] records that low[n] minus its trivial cut is a prefix
	// of high[n] — true for almost every node (both filters walk the
	// same sorted candidates, the low one just stops earlier), and the
	// ticket to building a node's tagged fanin union without any leaf
	// scanning; PIs and the constant hold trivially (identical
	// single-cut lists).
	if cap(e.isPrefix) < n {
		e.isPrefix = make([]bool, n)
	}
	e.isPrefix = e.isPrefix[:n]
	for i := range e.isPrefix {
		e.isPrefix[i] = i < int(g.FirstAnd())
	}
	for i := int(g.FirstAnd()); i < n; i++ {
		e.dualNode(g, pLow, pHigh, low, high, int32(i))
	}
	return low, high
}

// dualNode runs the dual-budget merge for one AND node n, reading only
// the fanins' entries of low/high/isPrefix and writing only node n's.
func (e *Enumerator) dualNode(g *aig.AIG, pLow, pHigh Params, low, high [][]Cut, n int32) {
	f0, f1 := g.Fanins(n)
	e.u0 = unionCuts(low[f0.Node()], high[f0.Node()], e.isPrefix[f0.Node()], e.u0[:0])
	e.u1 = unionCuts(low[f1.Node()], high[f1.Node()], e.isPrefix[f1.Node()], e.u1[:0])
	e.poolLow, e.poolHigh = e.poolLow[:0], e.poolHigh[:0]
	for i := range e.u0 {
		ta := &e.u0[i]
		for j := range e.u1 {
			tb := &e.u1[j]
			toLow := ta.inLow && tb.inLow
			toHigh := ta.inHigh && tb.inHigh
			if !toLow && !toHigh {
				continue
			}
			c, ok := merge(&ta.c, &tb.c, pLow.K, f0.IsCompl(), f1.IsCompl())
			if !ok {
				continue
			}
			if toLow {
				e.poolLow = append(e.poolLow, c)
			}
			if toHigh {
				e.poolHigh = append(e.poolHigh, c)
			}
		}
	}
	e.keep = filter(e.poolLow, pLow.MaxCuts, e.keep[:0])
	low[n] = e.copyKept(e.keep, n)
	e.keep = filter(e.poolHigh, pHigh.MaxCuts, e.keep[:0])
	high[n] = e.copyKept(e.keep, n)
	e.isPrefix[n] = cutsArePrefix(low[n], high[n])
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
		if !sameLeaves(&lo[i], &hi[i]) {
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
	for i := range lo {
		c := &lo[i]
		found := false
		for j := range buf {
			if sameLeaves(&buf[j].c, c) {
				buf[j].inLow = true
				found = true
				break
			}
		}
		if !found {
			buf = append(buf, taggedCut{c: *c, inLow: true})
		}
	}
	return buf
}

// sameLeaves reports whether two cuts have the same leaf set. Entries
// past the leaf count are zero, so the arrays compare whole.
func sameLeaves(a, b *Cut) bool {
	return a.n == b.n && a.leaves == b.leaves
}

// merge returns the cut of an AND node whose fanins have cuts a and b
// (complemented when inv0 and inv1): the union of their sorted leaves,
// with the AND of both tables rewired onto it. It fails when the union
// exceeds k leaves. Distinct signature bits are a lower bound on
// distinct leaves, so a signature popcount above k rejects the pair
// before any leaf is read; the leaf walk still checks, because leaves
// equal mod 64 share one bit.
func merge(a, b *Cut, k int, inv0, inv1 bool) (Cut, bool) {
	sig := a.sig | b.sig
	if bits.OnesCount64(sig) > k {
		return Cut{}, false
	}
	u := Cut{sig: sig}
	var pa, pb [4]uint8 // union position of each leaf of a and of b
	na, nb := int(a.n), int(b.n)
	i, j := 0, 0
	for i < na || j < nb {
		if int(u.n) == k {
			return Cut{}, false
		}
		switch {
		case j == nb || i < na && a.leaves[i] < b.leaves[j]:
			u.leaves[u.n&3] = a.leaves[i] // u.n < k <= 4; the mask drops the bounds check
			pa[i&3] = u.n
			i++
		case i == na || b.leaves[j] < a.leaves[i]:
			u.leaves[u.n&3] = b.leaves[j]
			pb[j&3] = u.n
			j++
		default:
			u.leaves[u.n&3] = a.leaves[i]
			pa[i&3], pb[j&3] = u.n, u.n
			i++
			j++
		}
		u.n++
	}
	ta, tb := expand(a.Table, na, &pa), expand(b.Table, nb, &pb)
	if inv0 {
		ta = ^ta
	}
	if inv1 {
		tb = ^tb
	}
	u.Table = ta & tb
	return u, true
}

// expand rewires a table over n sorted leaves onto a sorted superset in
// which leaf j sits at position pos[j]. The rewiring is a monotone
// variable expansion; lifting each variable into place with
// adjacent-position delta swaps (at most six for 4-variable tables) is
// an order of magnitude cheaper than the general TransformPins minterm
// loop, and this is the innermost operation of cut enumeration.
func expand(t uint16, n int, pos *[4]uint8) uint16 {
	// Place variables from the top so every swap on the way up crosses
	// only padding positions (the padded table is invariant under them,
	// but the swaps are exact regardless).
	for j := n - 1; j >= 0; j-- {
		for q := j; q < int(pos[j]); q++ {
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

// compareCuts orders cuts by leaf count, then lexicographically by
// leaves: a total order on distinct leaf sets.
func compareCuts(a, b Cut) int {
	if a.n != b.n {
		return int(a.n) - int(b.n)
	}
	for i := 0; i < int(a.n); i++ {
		if a.leaves[i] != b.leaves[i] {
			if a.leaves[i] < b.leaves[i] {
				return -1
			}
			return 1
		}
	}
	return 0
}

// filter deduplicates, removes dominated cuts (a cut is dominated when a
// strict subset of its leaves is also a cut), sorts by leaf count, and
// keeps at most maxCuts, appending survivors to out. The sort order is
// total on distinct leaf sets and cuts with equal leaves are identical
// values, so the unstable sort cannot affect the selection, and equal
// cuts end up adjacent: a duplicate is caught by comparing it with its
// sorted predecessor alone.
func filter(cs []Cut, maxCuts int, out []Cut) []Cut {
	slices.SortFunc(cs, compareCuts)
	for i := range cs {
		c := &cs[i]
		if i > 0 && sameLeaves(&cs[i-1], c) || dominated(out, c) {
			continue
		}
		out = append(out, *c)
		if len(out) == maxCuts {
			break
		}
	}
	return out
}

// dominated reports whether some kept cut's leaves are a strict subset
// of c's. A kept cut with a signature bit outside c's cannot be one.
func dominated(kept []Cut, c *Cut) bool {
	for i := range kept {
		x := &kept[i]
		if x.n < c.n && x.sig&^c.sig == 0 && subset(x, c) {
			return true
		}
	}
	return false
}

// subset reports whether a's sorted leaves are a subset of b's.
func subset(a, b *Cut) bool {
	i := 0
	for _, v := range b.leaves[:b.n] {
		if i < int(a.n) && a.leaves[i] == v {
			i++
		}
	}
	return i == int(a.n)
}
