package transform

import (
	"math/rand"

	"aigtimer/internal/aig"
)

// MergeEquiv merges functionally equivalent nodes (in either polarity),
// the simulation-based core of fraiging / SAT sweeping. Equivalence is
// established exhaustively for designs with at most 14 primary inputs;
// above that, 256 words (16,384 patterns) of seeded random simulation
// screen candidates and every merge is then proven by exact truth-table
// comparison of the two cones over their union PI support (merges whose
// union support exceeds 16 inputs are conservatively skipped). All merges
// are therefore exact; no SAT solver is needed.
func MergeEquiv(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return applyOne("fr", g, rng)
}

func (m *mover) mergeEquiv(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	var res *aig.SimResult
	sim := m.simulator(g)
	exhaustive := g.NumPIs() <= 14
	if exhaustive {
		res = sim.SimulateWords(exhaustivePatterns(g.NumPIs()), aig.ExhaustiveWords(g.NumPIs()))
	} else {
		res = sim.SimulateWords(m.randomPatterns(g.NumPIs(), 256, rng.Int63()), 256)
	}
	var ver *verifier
	if !exhaustive {
		ver = m.ver.bind(g)
	}

	classes := m.resetSigs(g.NumNodes())
	r := m.rebuild(g)
	for n := g.FirstAnd(); n < int32(g.NumNodes()); n++ {
		f0, f1 := g.Fanins(n)
		key, phase := canonSig(res, n)
		cl, ok := classes[key]
		if ok && sameFunction(res, n, cl.rep, phase != cl.phase) {
			// Exhaustive simulation is itself a proof; otherwise demand an
			// exact cone check before merging.
			merge := exhaustive
			if !merge {
				eq, verified := ver.equal(n, cl.rep, phase != cl.phase)
				merge = verified && eq
			}
			if merge {
				r.m[n] = r.m[cl.rep].NotIf(phase != cl.phase)
				continue
			}
		}
		if !ok {
			classes[key] = sigClass{rep: n, phase: phase}
		}
		r.copyNode(n, f0, f1)
	}
	return m.finish()
}

// canonSig hashes node n's simulated words in the phase whose first bit
// is 0, and returns that phase: complementary functions share a key.
func canonSig(res *aig.SimResult, n int32) (uint64, bool) {
	v := res.Values[n]
	phase := v[0]&1 == 1
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, w := range v {
		if phase {
			w = ^w
		}
		h ^= w
		h *= prime
	}
	return h, phase
}

// sameFunction verifies word-for-word that nodes a and b simulate
// identically (up to the given complement), guarding against hash
// collisions.
func sameFunction(res *aig.SimResult, a, b int32, compl bool) bool {
	va, vb := res.Values[a], res.Values[b]
	for i := range va {
		w := vb[i]
		if compl {
			w = ^w
		}
		if va[i] != w {
			return false
		}
	}
	return true
}
