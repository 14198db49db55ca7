package transform

import (
	"cmp"
	"math/rand"
	"slices"

	"aigtimer/internal/aig"
)

// Balance rebuilds every multi-input AND tree with minimum depth: the
// conjuncts of each tree are combined two at a time, always pairing the
// two shallowest (a Huffman-style reduction). It is the analogue of ABC's
// "balance" command and is the primary level-reducing transform.
func Balance(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return applyOne("b", g, rng)
}

// BalanceRandom rebuilds AND trees with random association instead of
// depth-minimal association. It preserves function while perturbing both
// level and sharing structure, providing diversity moves for annealing
// (the structural analogue of exploring a different ABC script ordering).
func BalanceRandom(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return applyOne("br", g, rng)
}

func (m *mover) balance(g *aig.AIG, rng *rand.Rand, randomize bool) *aig.AIG {
	m.done = grow(m.done, g.NumNodes())
	clear(m.done)
	m.lits = m.lits[:0]
	b := balancer{m: m, g: g, r: m.rebuild(g), fo: g.FanoutCounts(), rng: rng, randomize: randomize}
	for n := g.FirstAnd(); n < int32(g.NumNodes()); n++ {
		b.build(n)
	}
	return m.finish()
}

// balancer is one balance pass; its recursion keeps each tree's
// conjuncts on the mover's lits stack.
type balancer struct {
	m         *mover
	g         *aig.AIG
	r         *rebuilder
	fo        []int32
	rng       *rand.Rand
	randomize bool
}

func (b *balancer) build(n int32) {
	m, r := b.m, b.r
	if m.done[n] || !b.g.IsAnd(n) {
		return
	}
	m.done[n] = true
	// Map every conjunct in place (recursively balancing sub-trees).
	// The recursion pushes above end and pops back, but may move the
	// stack, so it is indexed afresh.
	start := len(m.lits)
	f0, f1 := b.g.Fanins(n)
	b.conjuncts(f0)
	b.conjuncts(f1)
	end := len(m.lits)
	for i := start; i < end; i++ {
		c := m.lits[i]
		b.build(c.Node())
		m.lits[i] = r.lit(c)
	}
	lits := m.lits[start:end]
	m.lits = m.lits[:start]
	if b.randomize {
		b.rng.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
		out := lits[0]
		for _, l := range lits[1:] {
			out = r.nb.And(out, l)
		}
		r.m[n] = out
		return
	}
	// Min-depth pairing: repeatedly combine the two shallowest.
	for len(lits) > 1 {
		slices.SortStableFunc(lits, func(a, b aig.Lit) int {
			return cmp.Compare(r.nb.LevelOf(a), r.nb.LevelOf(b))
		})
		lits[1] = r.nb.And(lits[0], lits[1])
		lits = lits[1:]
	}
	r.m[n] = lits[0]
}

// conjuncts pushes the leaves of the AND tree under l: fanin edges are
// followed while they are non-complemented references to single-fanout
// AND nodes (the classic balance decomposition boundary).
func (b *balancer) conjuncts(l aig.Lit) {
	nn := l.Node()
	if !l.IsCompl() && b.g.IsAnd(nn) && b.fo[nn] == 1 {
		f0, f1 := b.g.Fanins(nn)
		b.conjuncts(f0)
		b.conjuncts(f1)
		return
	}
	b.m.lits = append(b.m.lits, l)
}
