package transform

import (
	"math/rand"

	"aigtimer/internal/aig"
	"aigtimer/internal/cut"
	"aigtimer/internal/truth"
)

// Rewrite performs 4-cut rewriting: every AND node's best cut function is
// resynthesized through ISOP factoring and the replacement is kept when it
// strictly reduces the node count (accounting for the maximum fanout-free
// cone the replacement frees). This is the analogue of ABC's "rewrite".
func Rewrite(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return applyOne("rw", g, rng)
}

// RewriteZ is Rewrite with zero-cost replacements allowed (ABC's
// "rewrite -z"): structural changes that keep the node count are also
// accepted, which perturbs structure and unlocks later reductions.
func RewriteZ(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return applyOne("rwz", g, rng)
}

func (m *mover) rewrite(g *aig.AIG, rng *rand.Rand, minGain int) *aig.AIG {
	cuts := m.enum.Enumerate(g, cut.Params{K: 4, MaxCuts: 8})
	fo := g.FanoutCounts()
	sav := m.sav.bind(g)
	r := m.rebuild(g)
	for n := g.FirstAnd(); n < int32(g.NumNodes()); n++ {
		f0, f1 := g.Fanins(n)
		best := m.cuts[:0] // all candidates tied at the best gain
		bestGain := minGain - 1
		for i := range cuts[n] {
			c := &cuts[n][i]
			if c.IsTrivial(n) || c.Size() < 2 {
				continue
			}
			saved := sav.compute(n, c.Leaves(), fo)
			cost := m.cutProg(c.Table, c.Size()).cost()
			gain := saved - cost
			if gain > bestGain {
				bestGain = gain
				best = best[:0]
			}
			if gain == bestGain {
				best = append(best, *c)
			}
		}
		m.cuts = best
		if bestGain < minGain || len(best) == 0 {
			r.copyNode(n, f0, f1)
			continue
		}
		chosen := &best[rng.Intn(len(best))]
		m.ins = r.mapLeaves(chosen.Leaves(), m.ins)
		r.m[n] = m.cutProg(chosen.Table, chosen.Size()).replay(r.nb, m.ins)
	}
	return m.finish()
}

// Expand is a deliberate de-optimization used as a diversity move: a
// random subset of nodes is resynthesized from a random non-trivial cut
// into flat two-level (SOP) form without factoring or sharing. Function is
// preserved while node count typically grows, letting the annealer escape
// the locally-optimal structures that greedy transforms converge to. This
// plays the role of the node-increasing members of the paper's 103
// industry transformation combinations.
func Expand(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return applyOne("ex", g, rng)
}

func (m *mover) expand(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	const prob = 0.2
	cuts := m.enum.Enumerate(g, cut.Params{K: 4, MaxCuts: 8})
	r := m.rebuild(g)
	for n := g.FirstAnd(); n < int32(g.NumNodes()); n++ {
		f0, f1 := g.Fanins(n)
		if rng.Float64() >= prob {
			r.copyNode(n, f0, f1)
			continue
		}
		// Pick a random non-trivial cut.
		options := m.cuts[:0]
		for i := range cuts[n] {
			if c := &cuts[n][i]; !c.IsTrivial(n) && c.Size() >= 2 {
				options = append(options, *c)
			}
		}
		m.cuts = options
		if len(options) == 0 {
			r.copyNode(n, f0, f1)
			continue
		}
		c := &options[rng.Intn(len(options))]
		m.ins = r.mapLeaves(c.Leaves(), m.ins)
		r.m[n] = m.flatProg(c.Table, c.Size()).replay(r.nb, m.ins)
	}
	return m.finish()
}

// flatSOP emits an unfactored two-level implementation: one AND chain per
// cube, OR-chained in order. Expand replays it through flatProg.
func flatSOP(s *truth.Synth, b *aig.Builder, inputs []aig.Lit, t truth.TT) aig.Lit {
	if t.IsZero() {
		return aig.ConstFalse
	}
	if t.IsOne() {
		return aig.ConstTrue
	}
	out := aig.ConstFalse
	for _, cube := range s.ISOP(t, t) {
		term := aig.ConstTrue
		for v := 0; v < t.N; v++ {
			if !cube.Has(v) {
				continue
			}
			term = b.And(term, inputs[v].NotIf(!cube.Positive(v)))
		}
		out = b.Or(out, term)
	}
	return out
}
