package truth

import "aigtimer/internal/aig"

// Synth is the retained working storage of truth-table synthesis: the
// ISOP recursion's tables and the covers it builds, factoring's
// quotient and remainder stack and literal buffers, and the standalone
// builder that measures each polarity's cost. Its storage grows to the
// largest table it has served and is then reused, so a warm Synth
// synthesizes without allocating. The zero Synth is ready to use; it
// serves one call at a time.
type Synth struct {
	words []uint64         // ISOP recursion tables, one slab per call
	neg   []uint64         // the complement of the table in hand
	cubes []Cube           // covers, then factoring's quotients and remainders
	terms []aig.Lit        // an OR of cubes in flight
	lits  [MaxVars]aig.Lit // a cube's literals in flight
	ins   []aig.Lit        // the standalone builder's inputs
	cost  aig.Builder      // measures each polarity's standalone cost
}

// Synthesize builds an implementation of table t over the given inputs
// into b and returns its output literal: the factored ISOP of t or of
// its complement, whichever needs fewer AND nodes on its own (measured
// in a standalone builder, so the choice is deterministic and
// independent of what b holds). len(inputs) must equal t.N.
func (s *Synth) Synthesize(b *aig.Builder, inputs []aig.Lit, t TT) aig.Lit {
	if len(inputs) != t.N {
		panic("truth: Synthesize: input count mismatch")
	}
	if t.IsZero() {
		return aig.ConstFalse
	}
	if t.IsOne() {
		return aig.ConstTrue
	}
	s.neg = grow(s.neg, len(t.W))
	for i, w := range t.W {
		s.neg[i] = ^w
	}
	neg := TT{N: t.N, W: s.neg}
	s.cubes = s.cubes[:0]
	s.cover(t, t)
	np := len(s.cubes)
	s.cover(neg, neg)
	nn := len(s.cubes)
	if s.standalone(t.N, np, nn) < s.standalone(t.N, 0, np) {
		return s.factor(b, inputs, np, nn).Not()
	}
	return s.factor(b, inputs, 0, np)
}

// standalone returns the AND count of the cover s.cubes[lo:hi]
// factored over n fresh inputs.
func (s *Synth) standalone(n, lo, hi int) int {
	lits := 0
	for _, c := range s.cubes[lo:hi] {
		lits += c.NumLits()
	}
	s.cost.Reset(n, lits) // a factored cover needs fewer ANDs than literals
	s.ins = grow(s.ins, n)
	for i := range s.ins {
		s.ins[i] = s.cost.PI(i)
	}
	s.factor(&s.cost, s.ins, lo, hi)
	return s.cost.NumAnds()
}

// grow returns s with length n, reusing its storage when it is large
// enough. Its contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
