package aig

import (
	"math/rand"
)

// SimResult holds 64-bit-parallel simulation values for every node of an
// AIG. Word i of node n holds simulation bits 64i..64i+63.
type SimResult struct {
	Words  int
	Values [][]uint64 // indexed by node
}

// Simulate evaluates the AIG under the given PI patterns. piValues must
// have NumPIs rows of equal width (in 64-bit words). The constant node
// simulates to all-zero.
//
// It is a thin compatibility wrapper over a one-shot Simulator; callers
// that simulate repeatedly should hold a Simulator of their own so its
// buffers are reused across calls.
func (g *AIG) Simulate(piValues [][]uint64) *SimResult {
	return NewSimulator(g).Simulate(piValues)
}

// SimulateSequential is the scalar reference implementation of Simulate: a
// single-threaded topological pass with the complement handling inlined in
// the word loop. It allocates fresh buffers on every call. The engine
// is validated against it, and the BenchmarkSimulate suite measures
// the engine's speedup over it; functional code should prefer a Simulator.
func (g *AIG) SimulateSequential(piValues [][]uint64) *SimResult {
	if len(piValues) != g.numPIs {
		panic("aig: Simulate: wrong number of PI patterns")
	}
	words := 0
	if g.numPIs > 0 {
		words = len(piValues[0])
	}
	vals := make([][]uint64, len(g.nodes))
	vals[0] = make([]uint64, words) // constant false
	for i := 0; i < g.numPIs; i++ {
		if len(piValues[i]) != words {
			panic("aig: Simulate: ragged PI patterns")
		}
		vals[i+1] = piValues[i]
	}
	buf := make([]uint64, (len(g.nodes)-1-g.numPIs)*words)
	for i := g.numPIs + 1; i < len(g.nodes); i++ {
		nd := g.nodes[i]
		v0 := vals[nd.fanin0.Node()]
		v1 := vals[nd.fanin1.Node()]
		inv0 := nd.fanin0.IsCompl()
		inv1 := nd.fanin1.IsCompl()
		out := buf[:words:words]
		buf = buf[words:]
		for w := 0; w < words; w++ {
			a, b := v0[w], v1[w]
			if inv0 {
				a = ^a
			}
			if inv1 {
				b = ^b
			}
			out[w] = a & b
		}
		vals[i] = out
	}
	return &SimResult{Words: words, Values: vals}
}

// LitValues returns the simulation words of a literal, applying the
// complement. The result is freshly allocated when the literal is
// complemented.
func (r *SimResult) LitValues(l Lit) []uint64 {
	v := r.Values[l.Node()]
	if !l.IsCompl() {
		return v
	}
	out := make([]uint64, len(v))
	for i, w := range v {
		out[i] = ^w
	}
	return out
}

// RandomPatterns generates NumPIs random rows of the given word width.
func RandomPatterns(numPIs, words int, rng *rand.Rand) [][]uint64 {
	out := make([][]uint64, numPIs)
	for i := range out {
		row := make([]uint64, words)
		for w := range row {
			row[w] = rng.Uint64()
		}
		out[i] = row
	}
	return out
}

// ExhaustiveWords returns the word width of the ExhaustivePatterns rows
// for numPIs inputs: one word per 64 minterms, at least one. Pass it to
// Simulator.SimulateWords so the width survives even when there are no
// pattern rows to infer it from (a 0-PI AIG).
func ExhaustiveWords(numPIs int) int {
	return ((1 << numPIs) + 63) / 64
}

// ExhaustivePatterns generates the complete truth-table input patterns for
// numPIs inputs (numPIs must be at most 16). Row i is the canonical truth
// table of input variable i.
func ExhaustivePatterns(numPIs int) [][]uint64 {
	if numPIs > 16 {
		panic("aig: ExhaustivePatterns: too many PIs (max 16)")
	}
	words := ExhaustiveWords(numPIs)
	out := make([][]uint64, numPIs)
	for v := 0; v < numPIs; v++ {
		row := make([]uint64, words)
		if v < 6 {
			// Pattern repeats within each word.
			var w uint64
			period := 1 << (v + 1)
			half := 1 << v
			for b := 0; b < 64; b++ {
				if b%period >= half {
					w |= 1 << b
				}
			}
			for i := range row {
				row[i] = w
			}
		} else {
			// Whole words alternate.
			period := 1 << (v - 6 + 1)
			half := 1 << (v - 6)
			for i := range row {
				if i%period >= half {
					row[i] = ^uint64(0)
				}
			}
		}
		out[v] = row
	}
	return out
}

// Signature returns a functional fingerprint of the AIG computed from
// `words` words of seeded random simulation. Two functionally equivalent
// AIGs with the same PI/PO counts always produce equal signatures; unequal
// functions collide with probability about 2^-64 per word.
func (g *AIG) Signature(words int, seed int64) uint64 {
	rng := rand.New(rand.NewSource(seed))
	pats := RandomPatterns(g.numPIs, words, rng)
	res := NewSimulator(g).SimulateWords(pats, words)
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	for _, po := range g.pos {
		v := res.Values[po.Node()]
		inv := po.IsCompl()
		for _, w := range v {
			if inv {
				w = ^w
			}
			h ^= w
			h *= prime64
		}
	}
	return h
}

// EquivalentExhaustive exhaustively checks functional equivalence of two
// AIGs with identical PI and PO counts. It requires at most 16 PIs.
func EquivalentExhaustive(a, b *AIG) bool {
	if a.numPIs != b.numPIs || len(a.pos) != len(b.pos) {
		return false
	}
	if a.numPIs > 16 {
		panic("aig: EquivalentExhaustive: too many PIs (max 16)")
	}
	pats := ExhaustivePatterns(a.numPIs)
	nBits := 1 << a.numPIs
	words := ExhaustiveWords(a.numPIs)
	ra := NewSimulator(a).SimulateWords(pats, words)
	rb := NewSimulator(b).SimulateWords(pats, words)
	for i := range a.pos {
		va := ra.LitValues(a.pos[i])
		vb := rb.LitValues(b.pos[i])
		if !equalBits(va, vb, nBits) {
			return false
		}
	}
	return true
}

// EquivalentRandom checks functional equivalence of two AIGs with `words`
// words of seeded random simulation. It never reports false negatives for
// equivalent AIGs; inequivalent AIGs may (very rarely) escape detection.
func EquivalentRandom(a, b *AIG, words int, seed int64) bool {
	if a.numPIs != b.numPIs || len(a.pos) != len(b.pos) {
		return false
	}
	rng := rand.New(rand.NewSource(seed))
	pats := RandomPatterns(a.numPIs, words, rng)
	ra := NewSimulator(a).SimulateWords(pats, words)
	rb := NewSimulator(b).SimulateWords(pats, words)
	for i := range a.pos {
		va := ra.LitValues(a.pos[i])
		vb := rb.LitValues(b.pos[i])
		for w := range va {
			if va[w] != vb[w] {
				return false
			}
		}
	}
	return true
}

func equalBits(a, b []uint64, nBits int) bool {
	full := nBits / 64
	for w := 0; w < full; w++ {
		if a[w] != b[w] {
			return false
		}
	}
	if rem := nBits % 64; rem != 0 {
		mask := (uint64(1) << rem) - 1
		if (a[full]^b[full])&mask != 0 {
			return false
		}
	}
	return true
}
