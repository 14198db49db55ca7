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
func Resub(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return resubImpl(g, rng, 1)
}

// ResubZ performs resubstitution accepting zero-gain substitutions.
func ResubZ(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	return resubImpl(g, rng, 0)
}

func resubImpl(g *aig.AIG, rng *rand.Rand, minGain int) *aig.AIG {
	fo := g.FanoutCounts()
	lv := g.Levels()

	// Simulation signatures for screening.
	simRng := rand.New(rand.NewSource(rng.Int63()))
	ms := getMoveScratch()
	defer putMoveScratch(ms)
	var res *aig.SimResult
	sim := ms.simulator(g)
	exhaustive := g.NumPIs() <= 12
	if exhaustive {
		res = sim.SimulateWords(exhaustivePatterns(g.NumPIs()), aig.ExhaustiveWords(g.NumPIs()))
	} else {
		res = sim.SimulateWords(aig.RandomPatterns(g.NumPIs(), resubSimWords, simRng), resubSimWords)
	}
	var ver *verifier
	if !exhaustive {
		ver = newVerifier(g)
	}
	defer ver.release()

	// Index nodes by signature for 0-resub lookups.
	type sigClass struct{ rep int32 }
	bySig := map[uint64]sigClass{}
	sigOf := func(n int32) (uint64, bool) {
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

	mffc := mffcLowerBound(g, fo)
	r := newRebuilder(g)
	g.TopoForEachAnd(func(n int32, f0, f1 aig.Lit) {
		// 0-resub: an equivalent (possibly complemented) earlier node.
		key, phase := sigOf(n)
		if cl, ok := bySig[key]; ok && cl.rep != n {
			_, repPhase := sigOf(cl.rep)
			if verifyEqual(res, n, cl.rep, phase != repPhase) {
				merge := exhaustive
				if !merge {
					eq, verified := ver.equal(n, cl.rep, phase != repPhase)
					merge = verified && eq
				}
				if merge {
					r.m[n] = r.m[cl.rep].NotIf(phase != repPhase)
					return
				}
			}
		} else if !ok {
			bySig[key] = sigClass{rep: n}
		}
		// 1-resub: n = ±(±d0 · ±d1) for divisors below n's level with
		// smaller structural cost than the freed MFFC. Nodes whose own
		// support already exceeds the verification bound cannot yield a
		// provable substitution, so they are skipped outright.
		if int(mffc[n]) >= 1+minGain && (ver == nil || ver.verifiable(n)) {
			if lit, ok := tryOneResub(g, res, n, lv, rng, r, ver); ok {
				r.m[n] = lit
				return
			}
		}
		r.copyNode(n, f0, f1)
	})
	return r.finish()
}

// verifyEqual confirms word-exact equality (up to complement) of two
// nodes' simulated functions.
func verifyEqual(res *aig.SimResult, a, b int32, compl bool) bool {
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

// tryOneResub searches a sampled set of divisor pairs for n = ±(±d0·±d1).
// The simulation is exhaustive for designs of up to 12 inputs, making the
// match a proof; above that the match is a screen and ver provides the
// exact support-bounded cone check.
func tryOneResub(g *aig.AIG, res *aig.SimResult, n int32, lv []int32, rng *rand.Rand, r *rebuilder, ver *verifier) (aig.Lit, bool) {
	// Divisor pool: the node's structural neighborhood — fanins and their
	// siblings — plus random earlier nodes.
	f0, f1 := g.Fanins(n)
	pool := []int32{f0.Node(), f1.Node()}
	for k := 0; k < 8; k++ {
		d := int32(1 + rng.Intn(int(n)))
		if d != n && lv[d] < lv[n] {
			pool = append(pool, d)
		}
	}
	vn := res.Values[n]
	words := len(vn)
	tryPair := func(d0, d1 int32) (aig.Lit, bool) {
		v0, v1 := res.Values[d0], res.Values[d1]
		// Try the 8 complement combinations with outer phase both ways.
		for c := 0; c < 8; c++ {
			i0 := c&1 == 1
			i1 := c&2 == 2
			oc := c&4 == 4
			ok := true
			for w := 0; w < words; w++ {
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
			if ok {
				// The simulation match is a proof only in exhaustive mode;
				// otherwise require the exact cone check.
				if ver != nil {
					eq, verified := ver.andEquals(n, d0, d1, i0, i1, oc)
					if !verified || !eq {
						continue
					}
				}
				l := r.nb.And(r.m[d0].NotIf(i0), r.m[d1].NotIf(i1))
				return l.NotIf(oc), true
			}
		}
		return 0, false
	}
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
			if l, ok := tryPair(d0, d1); ok {
				return l, true
			}
		}
	}
	return 0, false
}
