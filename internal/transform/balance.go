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
	return balanceImpl(g, rng, false)
}

// BalanceRandom rebuilds AND trees with random association instead of
// depth-minimal association. It preserves function while perturbing both
// level and sharing structure, providing diversity moves for annealing
// (the structural analogue of exploring a different ABC script ordering).
func BalanceRandom(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return balanceImpl(g, rng, true)
}

func balanceImpl(g *aig.AIG, rng *rand.Rand, randomize bool) *aig.AIG {
	fo := g.FanoutCounts()
	r := newRebuilder(g)
	done := make([]bool, g.NumNodes())

	var build func(n int32)
	build = func(n int32) {
		if done[n] || !g.IsAnd(n) {
			return
		}
		done[n] = true
		// Map every conjunct in place (recursively balancing sub-trees).
		lits := collectConjuncts(g, n, fo)
		for i, c := range lits {
			build(c.Node())
			lits[i] = r.lit(c)
		}
		if randomize {
			rng.Shuffle(len(lits), func(i, j int) { lits[i], lits[j] = lits[j], lits[i] })
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

	g.TopoForEachAnd(func(n int32, f0, f1 aig.Lit) { build(n) })
	return r.finish()
}

// collectConjuncts gathers the leaves of the AND tree rooted at n:
// fanin edges are followed while they are non-complemented references to
// single-fanout AND nodes (the classic balance decomposition boundary).
func collectConjuncts(g *aig.AIG, n int32, fanouts []int32) []aig.Lit {
	var out []aig.Lit
	var visit func(l aig.Lit)
	visit = func(l aig.Lit) {
		nn := l.Node()
		if !l.IsCompl() && g.IsAnd(nn) && fanouts[nn] == 1 {
			f0, f1 := g.Fanins(nn)
			visit(f0)
			visit(f1)
			return
		}
		out = append(out, l)
	}
	f0, f1 := g.Fanins(n)
	visit(f0)
	visit(f1)
	return out
}
