package truth

import (
	"math/bits"
	"strings"
)

// Cube is a product term over up to MaxVars variables. Variable i appears
// in the cube iff bit i of Mask is set; it appears positively iff bit i of
// Pol is also set, otherwise negatively. The empty cube is the tautology.
type Cube struct {
	Mask, Pol uint32
}

// NumLits returns the number of literals in the cube.
func (c Cube) NumLits() int { return bits.OnesCount32(c.Mask) }

// Has reports whether the cube contains variable v (either polarity).
func (c Cube) Has(v int) bool { return c.Mask>>v&1 == 1 }

// Positive reports whether variable v appears positively. Only meaningful
// when Has(v) is true.
func (c Cube) Positive(v int) bool { return c.Pol>>v&1 == 1 }

// WithLit returns the cube extended with a literal of variable v.
func (c Cube) WithLit(v int, positive bool) Cube {
	c.Mask |= 1 << v
	if positive {
		c.Pol |= 1 << v
	} else {
		c.Pol &^= 1 << v
	}
	return c
}

// WithoutLit returns the cube with variable v removed.
func (c Cube) WithoutLit(v int) Cube {
	c.Mask &^= 1 << v
	c.Pol &^= 1 << v
	return c
}

// String renders the cube as its literals, variable 0 as 'a' and a
// negative literal with a leading '!'; the tautology is "1".
func (c Cube) String() string {
	if c.Mask == 0 {
		return "1"
	}
	var sb strings.Builder
	for v := 0; v < MaxVars; v++ {
		if !c.Has(v) {
			continue
		}
		if !c.Positive(v) {
			sb.WriteByte('!')
		}
		sb.WriteByte(byte('a' + v))
	}
	return sb.String()
}

// TT returns the truth table of the cube over n variables.
func (c Cube) TT(n int) TT {
	t := Const(n, true)
	for v := 0; v < n; v++ {
		if !c.Has(v) {
			continue
		}
		vt := Var(n, v)
		if !c.Positive(v) {
			vt = vt.Not()
		}
		t = t.And(vt)
	}
	return t
}

// Cover is a sum of cubes.
type Cover []Cube

// TT returns the truth table of the cover over n variables.
func (cv Cover) TT(n int) TT {
	t := New(n)
	for _, c := range cv {
		t = t.Or(c.TT(n))
	}
	return t
}

// NumLits returns the total literal count of the cover.
func (cv Cover) NumLits() int {
	n := 0
	for _, c := range cv {
		n += c.NumLits()
	}
	return n
}

// String renders the cover as its cubes joined by " + "; the empty
// cover is "0".
func (cv Cover) String() string {
	if len(cv) == 0 {
		return "0"
	}
	parts := make([]string, len(cv))
	for i, c := range cv {
		parts[i] = c.String()
	}
	return strings.Join(parts, " + ")
}

// ISOP computes an irredundant sum-of-products for any function f with
// on-set containing L and contained in U (L ⊆ f ⊆ U), using the
// Minato-Morreale procedure. For a completely specified function pass
// L = U = f. The returned cover's function g satisfies L ⊆ g ⊆ U. The
// cover is s's storage, valid until s's next call.
func (s *Synth) ISOP(L, U TT) Cover {
	L.check(U)
	mask := ^uint64(0)
	if L.N < 6 {
		mask = uint64(1)<<(1<<L.N) - 1
	}
	for i := range L.W {
		if L.W[i]&^U.W[i]&mask != 0 {
			panic("truth: ISOP: L not contained in U")
		}
	}
	s.cubes = s.cubes[:0]
	s.cover(L, U)
	return s.cubes
}

// isopTables is the number of tables one isop level uses.
const isopTables = 7

// cover appends an ISOP of [L, U] to s.cubes. Every recursion level
// carves its tables from s.words, which is sized for the deepest
// recursion first so that no level's tables move.
func (s *Synth) cover(L, U TT) {
	w := len(L.W)
	s.words = grow(s.words, (isopTables*L.N+1)*w)
	s.isop(L, U, TT{N: L.N, W: s.words[:w]}, L.N-1, w)
}

// isop appends to s.cubes the cover of [L, U] in which topVar is the
// highest variable that may still be in the support, and writes the
// cover's function to fn; its own tables start at s.words[at]. The
// cubes of the !v branch come first, then those of the v branch, then
// those free of v, each branch's cubes extended in place once its
// recursion returns.
func (s *Synth) isop(L, U, fn TT, topVar, at int) {
	if L.IsZero() {
		clear(fn.W)
		return
	}
	if U.IsOne() {
		s.cubes = append(s.cubes, Cube{})
		for i := range fn.W {
			fn.W[i] = ^uint64(0)
		}
		return
	}
	// Find the top variable that L or U actually depends on.
	v := topVar
	for v >= 0 && !L.DependsOn(v) && !U.DependsOn(v) {
		v--
	}
	if v < 0 {
		// L nonzero and U not tautology but no support: impossible since
		// L ⊆ U; L must be 0 or U must be 1 for constant functions.
		panic("truth: isop: inconsistent bounds")
	}
	w := len(L.W)
	var t [isopTables]TT
	for i := range t {
		t[i] = TT{N: L.N, W: s.words[at+i*w : at+(i+1)*w]}
	}
	L0, L1, U0, U1, x, f0, f1 := t[0], t[1], t[2], t[3], t[4], t[5], t[6]
	next := at + isopTables*w
	cofactorInto(L0.W, L.W, v, false)
	cofactorInto(L1.W, L.W, v, true)
	cofactorInto(U0.W, U.W, v, false)
	cofactorInto(U1.W, U.W, v, true)

	// Cubes that must contain literal !v: cover L0 minus what U1 allows.
	start := len(s.cubes)
	for i := range x.W {
		x.W[i] = L0.W[i] &^ U1.W[i]
	}
	s.isop(x, U0, f0, v-1, next)
	for i := start; i < len(s.cubes); i++ {
		s.cubes[i] = s.cubes[i].WithLit(v, false)
	}
	// Cubes that must contain literal v.
	start = len(s.cubes)
	for i := range x.W {
		x.W[i] = L1.W[i] &^ U0.W[i]
	}
	s.isop(x, U1, f1, v-1, next)
	for i := start; i < len(s.cubes); i++ {
		s.cubes[i] = s.cubes[i].WithLit(v, true)
	}
	// The remainder is covered without a v literal: its lower bound
	// goes to x, its upper bound U0·U1 to L0 and its function to L1.
	for i := range x.W {
		x.W[i] = L0.W[i]&^f0.W[i] | L1.W[i]&^f1.W[i]
		L0.W[i] = U0.W[i] & U1.W[i]
	}
	s.isop(x, L0, L1, v-1, next)

	// fn = !v·f0 + v·f1 + f2, with v's projection in x.
	VarInto(x.W, L.N, v)
	for i := range fn.W {
		fn.W[i] = ^x.W[i]&f0.W[i] | x.W[i]&f1.W[i] | L1.W[i]
	}
}
