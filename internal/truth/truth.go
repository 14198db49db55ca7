// Package truth implements truth-table manipulation for small Boolean
// functions: cofactoring, support detection, irredundant sum-of-products
// extraction (Minato-Morreale ISOP), algebraic factoring, NPN canonization
// of 4-input functions, and synthesis of truth tables into AIG structure.
//
// Cut-based rewriting, refactoring and technology mapping all reduce to
// "here is the local function of a cut; produce or match an implementation",
// and this package is that common substrate.
//
// ISOP extraction and synthesis run on a Synth, which retains the
// recursion's tables, the covers, factoring's cube stack and literal
// buffers, and the builder that measures each polarity's cost. The
// transform layer's movers each own one, so recording a synthesis
// program for a new function allocates only the program.
package truth

import (
	"fmt"
	"math/bits"
)

// MaxVars is the largest supported number of variables.
const MaxVars = 16

// TT is a truth table over N variables. Bit m of the table (bit m%64 of
// word m/64) holds the function value on the minterm with variable i equal
// to bit i of m. Tables with fewer than 6 variables still use one word,
// with the value replicated so that bitwise ops remain valid; only the low
// 2^N bits are significant.
type TT struct {
	N int
	W []uint64
}

// Words returns the number of 64-bit words needed for n variables.
func Words(n int) int {
	if n <= 6 {
		return 1
	}
	return 1 << (n - 6)
}

// New returns the constant-false table over n variables.
func New(n int) TT {
	if n < 0 || n > MaxVars {
		panic(fmt.Sprintf("truth: bad variable count %d", n))
	}
	return TT{N: n, W: make([]uint64, Words(n))}
}

// Const returns the constant table (false or true) over n variables.
func Const(n int, v bool) TT {
	t := New(n)
	if v {
		for i := range t.W {
			t.W[i] = ^uint64(0)
		}
		t.maskTop()
	}
	return t
}

// varMasks[i] is the single-word pattern of variable i for i < 6.
var varMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// Var returns the projection table of variable v over n variables.
func Var(n, v int) TT {
	t := New(n)
	VarInto(t.W, n, v)
	return t
}

// VarInto fills w — which must hold Words(n) words — with the projection
// table of variable v over n variables: the allocation-free form of Var
// for callers that manage their own word storage. Every word is fully
// overwritten, and the result is already in the replicated normal form
// maskTop produces (the var masks are periodic within a word).
func VarInto(w []uint64, n, v int) {
	if v < 0 || v >= n {
		panic(fmt.Sprintf("truth: variable %d out of range for %d vars", v, n))
	}
	if v < 6 {
		for i := range w {
			w[i] = varMasks[v]
		}
		return
	}
	period := 1 << (v - 6 + 1)
	half := 1 << (v - 6)
	for i := range w {
		if i%period >= half {
			w[i] = ^uint64(0)
		} else {
			w[i] = 0
		}
	}
}

// maskTop clears the insignificant high bits for tables under 6 variables.
func (t *TT) maskTop() {
	if t.N < 6 {
		mask := (uint64(1) << (1 << t.N)) - 1
		// Keep the low 2^N bits replicated across the word so bitwise
		// operations behave; we normalize by replication.
		v := t.W[0] & mask
		for sh := 1 << t.N; sh < 64; sh <<= 1 {
			v |= v << sh
		}
		t.W[0] = v
	}
}

// Clone returns a deep copy.
func (t TT) Clone() TT {
	return TT{N: t.N, W: append([]uint64(nil), t.W...)}
}

func (t TT) check(o TT) {
	if t.N != o.N {
		panic("truth: mixing tables of different arity")
	}
}

// Not returns the complement.
func (t TT) Not() TT {
	o := New(t.N)
	for i := range t.W {
		o.W[i] = ^t.W[i]
	}
	return o
}

// And returns the conjunction.
func (t TT) And(u TT) TT {
	t.check(u)
	o := New(t.N)
	for i := range t.W {
		o.W[i] = t.W[i] & u.W[i]
	}
	return o
}

// Or returns the disjunction.
func (t TT) Or(u TT) TT {
	t.check(u)
	o := New(t.N)
	for i := range t.W {
		o.W[i] = t.W[i] | u.W[i]
	}
	return o
}

// Xor returns the exclusive-or.
func (t TT) Xor(u TT) TT {
	t.check(u)
	o := New(t.N)
	for i := range t.W {
		o.W[i] = t.W[i] ^ u.W[i]
	}
	return o
}

// AndNot returns t & ~u.
func (t TT) AndNot(u TT) TT {
	t.check(u)
	o := New(t.N)
	for i := range t.W {
		o.W[i] = t.W[i] &^ u.W[i]
	}
	return o
}

// IsZero reports whether the function is constant false.
func (t TT) IsZero() bool {
	if t.N < 6 {
		mask := (uint64(1) << (1 << t.N)) - 1
		return t.W[0]&mask == 0
	}
	for _, w := range t.W {
		if w != 0 {
			return false
		}
	}
	return true
}

// IsOne reports whether the function is constant true.
func (t TT) IsOne() bool {
	if t.N < 6 {
		mask := (uint64(1) << (1 << t.N)) - 1
		return t.W[0]&mask == mask
	}
	for _, w := range t.W {
		if w != ^uint64(0) {
			return false
		}
	}
	return true
}

// Equal reports whether two tables denote the same function.
func (t TT) Equal(u TT) bool {
	if t.N != u.N {
		return false
	}
	if t.N < 6 {
		mask := (uint64(1) << (1 << t.N)) - 1
		return (t.W[0]^u.W[0])&mask == 0
	}
	for i := range t.W {
		if t.W[i] != u.W[i] {
			return false
		}
	}
	return true
}

// CountOnes returns the number of minterms on which the function is true.
func (t TT) CountOnes() int {
	if t.N < 6 {
		mask := (uint64(1) << (1 << t.N)) - 1
		return bits.OnesCount64(t.W[0] & mask)
	}
	n := 0
	for _, w := range t.W {
		n += bits.OnesCount64(w)
	}
	return n
}

// Bit returns the function value on minterm m.
func (t TT) Bit(m int) bool {
	return t.W[m/64]>>(m%64)&1 == 1
}

// SetBit sets the function value on minterm m to true.
func (t *TT) SetBit(m int) {
	t.W[m/64] |= 1 << (m % 64)
	t.maskTop()
}

// Cofactor returns the cofactor with variable v fixed to val. The result
// remains a table over N variables (the cofactor is independent of v).
func (t TT) Cofactor(v int, val bool) TT {
	o := New(t.N)
	cofactorInto(o.W, t.W, v, val)
	o.maskTop()
	return o
}

// cofactorInto writes to o the words of the cofactor of the table t with
// variable v fixed to val.
func cofactorInto(o, t []uint64, v int, val bool) {
	if v < 6 {
		sh := uint(1) << v
		m := varMasks[v]
		for i, w := range t {
			if val {
				hi := w & m
				o[i] = hi | hi>>sh
			} else {
				lo := w &^ m
				o[i] = lo | lo<<sh
			}
		}
		return
	}
	period := 1 << (v - 6 + 1)
	half := 1 << (v - 6)
	for i := range t {
		base := i - i%period
		if val {
			o[i] = t[base+i%half+half]
		} else {
			o[i] = t[base+i%half]
		}
	}
}

// DependsOn reports whether the function depends on variable v, that is,
// whether its two cofactors on v differ. The cofactors are compared in
// place, so the check allocates nothing.
func (t TT) DependsOn(v int) bool {
	if v >= 6 {
		half := 1 << (v - 6)
		for i := range t.W {
			if i&half == 0 && t.W[i] != t.W[i+half] {
				return true
			}
		}
		return false
	}
	// Compare each minterm with v clear against its partner with v set.
	mask := ^varMasks[v]
	if t.N < 6 {
		mask &= (uint64(1) << (1 << t.N)) - 1
	}
	sh := uint(1) << v
	for _, w := range t.W {
		if (w^w>>sh)&mask != 0 {
			return true
		}
	}
	return false
}

// Support returns the indices of variables the function depends on.
func (t TT) Support() []int {
	var s []int
	for v := 0; v < t.N; v++ {
		if t.DependsOn(v) {
			s = append(s, v)
		}
	}
	return s
}

// Uint16 returns the low 16 bits, the standard encoding for 4-variable
// functions. Panics for tables over more than 4 variables.
func (t TT) Uint16() uint16 {
	if t.N > 4 {
		panic("truth: Uint16 on table with more than 4 vars")
	}
	return uint16(t.W[0])
}

// FromUint16K builds a k-variable table (k ≤ 4) from a 16-bit encoding
// whose low 2^k bits are significant.
func FromUint16K(f uint16, k int) TT {
	if k > 4 {
		panic("truth: FromUint16K: k must be at most 4")
	}
	t := New(k)
	v := uint64(f)
	v |= v << 16
	v |= v << 32
	t.W[0] = v
	t.maskTop()
	return t
}

// FromUint16 builds a 4-variable table from its 16-bit encoding.
func FromUint16(f uint16) TT {
	t := New(4)
	v := uint64(f)
	v |= v << 16
	v |= v << 32
	t.W[0] = v
	return t
}

// String renders the table as "tt<N>:" followed by its bits in hex: the
// 16-bit encoding up to 4 variables, the words beyond.
func (t TT) String() string {
	if t.N <= 4 {
		return fmt.Sprintf("tt%d:%04x", t.N, t.Uint16())
	}
	return fmt.Sprintf("tt%d:%x", t.N, t.W)
}
