package aig

import "fmt"

// Delta records how a derived AIG ("next") structurally relates to the
// AIG it was produced from ("prev"): which nodes are shared and which
// belong to the cone a transformation actually touched. Rebase returns
// one with every rebased graph; it describes a move's footprint
// (NumDirty, DirtyFraction) and Validate checks it against a pair of
// graphs.
//
// A Delta always describes a *rebased* next graph (see Rebase): the AND
// nodes of next are partitioned into a matched prefix and a dirty
// suffix. Node FirstAnd+i of next is structurally identical (same
// function, same fanin structure, transitively) to prev node
// MatchedPrev[i], and MatchedPrev is strictly ascending, so the
// translation between the two graphs preserves index order — the
// property that lets per-node state of prev carry over to next. All
// remaining nodes, indices FirstAnd+len(MatchedPrev) and up, are dirty:
// they either are new structure or have new structure somewhere in
// their transitive fanin.
//
// Because matching requires both fanins to be matched, the dirty set is
// closed under transitive fanout by construction.
type Delta struct {
	// MatchedPrev maps the matched prefix of next onto prev: next AND
	// node FirstAnd+i corresponds to prev node MatchedPrev[i]. Strictly
	// ascending.
	MatchedPrev []int32

	prevAnds int // prev.NumAnds() at diff time
	nextAnds int // next.NumAnds() at diff time
}

// NumMatched returns the number of next AND nodes shared with prev.
func (d *Delta) NumMatched() int { return len(d.MatchedPrev) }

// NumDirty returns the number of next AND nodes in the touched cone
// (new structure plus its transitive fanout).
func (d *Delta) NumDirty() int { return d.nextAnds - len(d.MatchedPrev) }

// DirtyFraction returns NumDirty over next's AND count; 0 for an empty
// graph.
func (d *Delta) DirtyFraction() float64 {
	if d.nextAnds == 0 {
		return 0
	}
	return float64(d.NumDirty()) / float64(d.nextAnds)
}

// String summarizes the matched/dirty split for debugging.
func (d *Delta) String() string {
	return fmt.Sprintf("delta{matched=%d dirty=%d (%.1f%%)}",
		d.NumMatched(), d.NumDirty(), 100*d.DirtyFraction())
}

// Validate checks that d is a consistent description of next relative
// to prev: the matched prefix is in bounds, strictly ascending, and
// every matched node's fanin pair translates exactly onto its prev
// counterpart's stored pair (up to the commutative swap). The check is
// O(matched).
func (d *Delta) Validate(prev, next *AIG) error {
	if prev.numPIs != next.numPIs {
		return fmt.Errorf("aig: delta: PI count mismatch (%d vs %d)", prev.numPIs, next.numPIs)
	}
	if d.nextAnds != next.NumAnds() || d.prevAnds != prev.NumAnds() {
		return fmt.Errorf("aig: delta: node counts moved since diff (prev %d/%d, next %d/%d)",
			d.prevAnds, prev.NumAnds(), d.nextAnds, next.NumAnds())
	}
	if len(d.MatchedPrev) > next.NumAnds() {
		return fmt.Errorf("aig: delta: %d matched > %d AND nodes", len(d.MatchedPrev), next.NumAnds())
	}
	first := next.FirstAnd()
	toPrev := func(n int32) int32 { // next node -> prev node, -1 if dirty
		if n < first {
			return n // constant and PIs map to themselves
		}
		if i := n - first; int(i) < len(d.MatchedPrev) {
			return d.MatchedPrev[i]
		}
		return -1
	}
	prevLast := int32(-1)
	for i, m := range d.MatchedPrev {
		if m < prev.FirstAnd() || int(m) >= prev.NumNodes() {
			return fmt.Errorf("aig: delta: matched[%d] = %d out of prev range", i, m)
		}
		if m <= prevLast {
			return fmt.Errorf("aig: delta: matched prefix not ascending at %d", i)
		}
		prevLast = m
		n := first + int32(i)
		f0, f1 := next.Fanins(n)
		p0, p1 := toPrev(f0.Node()), toPrev(f1.Node())
		if p0 < 0 || p1 < 0 {
			return fmt.Errorf("aig: delta: matched node %d has dirty fanin", n)
		}
		t0 := MakeLit(p0, f0.IsCompl())
		t1 := MakeLit(p1, f1.IsCompl())
		g0, g1 := prev.Fanins(m)
		if !(t0 == g0 && t1 == g1) && !(t0 == g1 && t1 == g0) {
			return fmt.Errorf("aig: delta: matched node %d does not reproduce prev node %d", n, m)
		}
	}
	return nil
}

// pairKeyNorm builds an order-normalized strash key for a fanin pair,
// so lookups are insensitive to the commutative storage order.
func pairKeyNorm(a, b Lit) uint64 {
	if a < b {
		a, b = b, a
	}
	return uint64(a)<<32 | uint64(b)
}

// PairIndex returns a map from order-normalized fanin pair to AND-node
// index — the strash view Rebase matches against. The index is computed
// once and cached (like Levels and FanoutCounts); callers must not
// modify it, and concurrent users must warm it first, as the annealer
// does before fanning proposals out over a shared base. On duplicate
// pairs (non-Builder graphs) the lowest node wins, which only costs
// match coverage, never correctness.
func (g *AIG) PairIndex() map[uint64]int32 {
	if g.pairs != nil {
		return g.pairs
	}
	pairs := make(map[uint64]int32, g.NumAnds())
	for i := int(g.FirstAnd()); i < g.NumNodes(); i++ {
		nd := g.nodes[i]
		k := pairKeyNorm(nd.fanin0, nd.fanin1)
		if _, ok := pairs[k]; !ok {
			pairs[k] = int32(i)
		}
	}
	g.pairs = pairs
	return pairs
}

// Rebase renumbers next into the canonical delta-friendly form relative
// to prev and returns the rebased graph together with its Delta. Both
// inputs are left untouched, and so is b's graph: Rebase only uses b's
// scratch, so a warm Builder allocates nothing but the result. The
// result is a pure renumbering of next (functionally identical, same
// AND/level counts).
//
// Matching is structural: a next node matches a prev node when its
// fanin pair, translated through already-matched fanins, is a fanin
// pair of prev (commutative order ignored). Matched nodes are placed
// first, sorted by their prev index — which makes the next↔prev
// translation monotone — followed by the dirty nodes in their
// original relative order. Both segments respect topological order
// because a matched node's fanins are matched and a dirty node's fanins
// precede it in next.
func (b *Builder) Rebase(prev, next *AIG) (*AIG, *Delta) {
	if prev.numPIs != next.numPIs {
		// Not comparable; return an all-dirty self-delta-free copy.
		g := next.Copy()
		return g, &Delta{prevAnds: prev.NumAnds(), nextAnds: next.NumAnds()}
	}
	// Index prev's AND nodes by normalized fanin pair; the index is
	// cached on prev, so the many proposals of one annealing round
	// rebase against a shared base for one build.
	pairs := prev.PairIndex()
	numNodes := next.NumNodes()
	first := int(next.FirstAnd())
	// match maps a next node to its prev node, -1 if dirty; owner maps a
	// claimed prev node back to its next node, 0 if unclaimed.
	match := resize(b.match, numNodes)
	owner := resize(b.owner, prev.NumNodes())
	b.match, b.owner = match, owner
	clear(owner)
	for i := 0; i < first; i++ {
		match[i] = int32(i) // constant + PIs
	}
	matched := 0
	for i := first; i < numNodes; i++ {
		match[i] = -1
		nd := next.nodes[i]
		m0 := match[nd.fanin0.Node()]
		m1 := match[nd.fanin1.Node()]
		if m0 >= 0 && m1 >= 0 {
			t0 := MakeLit(m0, nd.fanin0.IsCompl())
			t1 := MakeLit(m1, nd.fanin1.IsCompl())
			if p, ok := pairs[pairKeyNorm(t0, t1)]; ok && owner[p] == 0 {
				owner[p] = int32(i)
				match[i] = p
				matched++
			}
		}
	}

	// perm maps a next node to its rebased node: the matched segment in
	// prev order (the monotone translation), then the dirty nodes in
	// next's order. It takes over match's storage: the matched entries
	// are overwritten first, leaving the dirty ones at -1.
	perm := match
	matchedPrev := make([]int32, 0, matched)
	pos := int32(first)
	for p := prev.FirstAnd(); p < int32(prev.NumNodes()); p++ {
		if n := owner[p]; n != 0 {
			perm[n] = pos
			matchedPrev = append(matchedPrev, p)
			pos++
		}
	}
	for i := first; i < numNodes; i++ {
		if perm[i] < 0 {
			perm[i] = pos
			pos++
		}
	}
	mapLit := func(l Lit) Lit { return MakeLit(perm[l.Node()], l.IsCompl()) }

	g := &AIG{
		nodes:  make([]node, numNodes),
		numPIs: next.numPIs,
		pos:    make([]Lit, len(next.pos)),
	}
	for i := 0; i < first; i++ {
		g.nodes[i] = node{noFanin, noFanin}
	}
	for i := first; i < numNodes; i++ {
		nd := next.nodes[i]
		g.nodes[perm[i]] = node{mapLit(nd.fanin0), mapLit(nd.fanin1)}
	}
	for i, po := range next.pos {
		g.pos[i] = mapLit(po)
	}
	return g, &Delta{MatchedPrev: matchedPrev, prevAnds: prev.NumAnds(), nextAnds: next.NumAnds()}
}

// TFO returns the AND nodes in the transitive fanout of the seed nodes
// (seeds included, ascending order): any change at a seed invalidates
// exactly this set downstream, which is why Rebase's dirty suffix —
// unmatched nodes plus everything reached through them — is TFO-closed
// by construction.
func (g *AIG) TFO(seeds []int32) []int32 {
	mark := make([]bool, len(g.nodes))
	for _, s := range seeds {
		if s >= 0 && int(s) < len(g.nodes) {
			mark[s] = true
		}
	}
	var out []int32
	for i := int(g.FirstAnd()); i < len(g.nodes); i++ {
		nd := g.nodes[i]
		if mark[i] || mark[nd.fanin0.Node()] || mark[nd.fanin1.Node()] {
			mark[i] = true
			out = append(out, int32(i))
		}
	}
	return out
}
