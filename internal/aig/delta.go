package aig

// Delta carries nothing.
//
// Deprecated: no code reads it; it remains only because
// eval.DeltaEvaluator's EvaluateDelta names it.
type Delta struct{}

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
// to prev and returns the rebased graph. Both inputs are left
// untouched, and so is b's graph: Rebase only uses b's scratch, so a
// warm Builder allocates nothing but the result. The result is a pure
// renumbering of next (functionally identical, same AND/level counts).
//
// Matching is structural: a next node matches a prev node when its
// fanin pair, translated through already-matched fanins, is a fanin
// pair of prev (commutative order ignored). Matched nodes are placed
// first, sorted by their prev index — which makes the next↔prev
// translation monotone — followed by the dirty nodes (new structure,
// or structure over it) in their original relative order. Both
// segments respect topological order because a matched node's fanins
// are matched and a dirty node's fanins precede it in next.
func (b *Builder) Rebase(prev, next *AIG) *AIG {
	if prev.numPIs != next.numPIs {
		return next.Copy() // not comparable: nothing matches
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
			}
		}
	}

	// perm maps a next node to its rebased node: the matched segment in
	// prev order (the monotone translation), then the dirty nodes in
	// next's order. It takes over match's storage: the matched entries
	// are overwritten first, leaving the dirty ones at -1.
	perm := match
	pos := int32(first)
	for p := prev.FirstAnd(); p < int32(prev.NumNodes()); p++ {
		if n := owner[p]; n != 0 {
			perm[n] = pos
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
	return g
}
