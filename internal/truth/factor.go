package truth

import (
	"math/bits"

	"aigtimer/internal/aig"
)

// Factoring turns a sum-of-products cover into a multi-level AND/OR
// expression tree ("quick factoring"): the most frequent literal is
// factored out recursively, i.e. cover = lit·Q + R. The tree is then
// emitted into an AIG builder. This is the resynthesis engine behind the
// refactor transformation and the fallback path of cut rewriting.

// factor emits the factored form of the cover s.cubes[lo:hi] into b
// over the given input literals and returns the output literal. An
// empty cover yields constant false; a cover containing the tautology
// cube yields constant true. Each level pushes its quotient and
// remainder onto s.cubes above everything live and pops them before it
// returns, so the covers below are never moved or overwritten.
func (s *Synth) factor(b *aig.Builder, inputs []aig.Lit, lo, hi int) aig.Lit {
	if lo == hi {
		return aig.ConstFalse
	}
	for _, c := range s.cubes[lo:hi] {
		if c.Mask == 0 {
			return aig.ConstTrue
		}
	}
	if hi-lo == 1 {
		return s.cube(b, inputs, s.cubes[lo])
	}
	v, pos, cnt := bestLiteral(s.cubes[lo:hi])
	if cnt <= 1 {
		// No shared literal: emit the plain OR of cubes, balanced.
		s.terms = s.terms[:0]
		for i := lo; i < hi; i++ {
			s.terms = append(s.terms, s.cube(b, inputs, s.cubes[i]))
		}
		return orTree(b, s.terms)
	}
	// Divide: cv = lit·Q + R.
	top := len(s.cubes)
	for i := lo; i < hi; i++ {
		if c := s.cubes[i]; c.Has(v) && c.Positive(v) == pos {
			s.cubes = append(s.cubes, c.WithoutLit(v))
		}
	}
	q := len(s.cubes)
	for i := lo; i < hi; i++ {
		if c := s.cubes[i]; !(c.Has(v) && c.Positive(v) == pos) {
			s.cubes = append(s.cubes, c)
		}
	}
	r := len(s.cubes)
	lit := inputs[v].NotIf(!pos)
	qf := s.factor(b, inputs, top, q)
	out := b.And(lit, qf)
	if r > q {
		out = b.Or(out, s.factor(b, inputs, q, r))
	}
	s.cubes = s.cubes[:top]
	return out
}

// bestLiteral returns the literal (variable, polarity) occurring in the
// most cubes, along with its count; ties go to the lowest variable,
// then to the negative literal.
func bestLiteral(cv Cover) (v int, pos bool, count int) {
	var cnt [MaxVars][2]int
	for _, c := range cv {
		for m := c.Mask; m != 0; m &= m - 1 {
			x := bits.TrailingZeros32(m)
			cnt[x][c.Pol>>x&1]++
		}
	}
	count = -1
	for x := 0; x < MaxVars; x++ {
		for p := 0; p < 2; p++ {
			if cnt[x][p] > count {
				count = cnt[x][p]
				v = x
				pos = p == 1
			}
		}
	}
	return v, pos, count
}

// cube emits the AND of a cube's literals, in variable order, as a
// balanced tree.
func (s *Synth) cube(b *aig.Builder, inputs []aig.Lit, c Cube) aig.Lit {
	lits := s.lits[:0]
	for m := c.Mask; m != 0; m &= m - 1 {
		v := bits.TrailingZeros32(m)
		lits = append(lits, inputs[v].NotIf(!c.Positive(v)))
	}
	return andTree(b, lits)
}

// andTree reduces ls pairwise, level by level, to their AND, writing
// each level over the one it reads.
func andTree(b *aig.Builder, ls []aig.Lit) aig.Lit {
	if len(ls) == 0 {
		return aig.ConstTrue
	}
	for len(ls) > 1 {
		n := 0
		for i := 0; i+1 < len(ls); i += 2 {
			ls[n] = b.And(ls[i], ls[i+1])
			n++
		}
		if len(ls)%2 == 1 {
			ls[n] = ls[len(ls)-1]
			n++
		}
		ls = ls[:n]
	}
	return ls[0]
}

// orTree is andTree for OR.
func orTree(b *aig.Builder, ls []aig.Lit) aig.Lit {
	if len(ls) == 0 {
		return aig.ConstFalse
	}
	for len(ls) > 1 {
		n := 0
		for i := 0; i+1 < len(ls); i += 2 {
			ls[n] = b.Or(ls[i], ls[i+1])
			n++
		}
		if len(ls)%2 == 1 {
			ls[n] = ls[len(ls)-1]
			n++
		}
		ls = ls[:n]
	}
	return ls[0]
}
