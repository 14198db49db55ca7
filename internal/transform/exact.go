package transform

import (
	"math/bits"
	"slices"

	"aigtimer/internal/aig"
)

// Exact verification of candidate node equivalences. Random simulation is
// an efficient screen but cannot *prove* equivalence: two functions that
// differ on a handful of minterms will usually survive thousands of random
// patterns. Since this repository is SAT-free, candidate merges are
// instead verified by exact truth-table evaluation of both cones over the
// union of their primary-input supports — and candidates whose union
// support exceeds exactVerifyMaxSupport are conservatively rejected. This
// keeps every transform exactly function-preserving.

// exactVerifyMaxSupport bounds the union support for exact verification
// (2^12 bits = 64 words per table). Larger-support candidates are
// conservatively rejected: correctness is never traded for optimization
// power, and the bound keeps the verifier cheap enough for the annealing
// inner loop.
const exactVerifyMaxSupport = 12

// verWords is the table width, in 64-bit words, at the support bound.
const verWords = 1 << (exactVerifyMaxSupport - 6)

// verifier performs exact cone comparisons over bounded supports. A
// mover holds one and binds it to each graph it verifies on; its
// storage — the support masks, the PI-to-variable map and an
// epoch-stamped truth-table memo — is reused from graph to graph. The
// memo holds the tables of the current comparison's cones only, so it
// grows with the largest cone compared, not with the graph.
type verifier struct {
	g      *aig.AIG
	sup    []uint64 // per node, the primary inputs in its transitive fanin
	vm     [64]int
	wpk    int      // words per table in the current comparison
	tables []uint64 // the current comparison's tables, wpk words each
	slot   []int32  // per node, the index of its table (valid if memoEp)
	memoEp []uint32 // per-node epoch stamp validating slot
	epoch  uint32
}

// bind points v at g and computes g's PI supports. Panics when the
// design has more than 64 inputs (far beyond the paper's suite).
func (v *verifier) bind(g *aig.AIG) *verifier {
	if g.NumPIs() > 64 {
		panic("transform: verifier supports at most 64 PIs")
	}
	v.g = g
	sup := grow(v.sup, g.NumNodes())
	v.sup = sup
	sup[0] = 0
	for i := 1; i <= g.NumPIs(); i++ {
		sup[i] = 1 << (i - 1)
	}
	for n := g.FirstAnd(); n < int32(g.NumNodes()); n++ {
		f0, f1 := g.Fanins(n)
		sup[n] = sup[f0.Node()] | sup[f1.Node()]
	}
	return v
}

// beginEval empties the memo for one exact comparison over k
// variables. Tables with k < 6 variables still use one word with the
// value replicated (the same invariant truth.TT maintains), so all
// comparisons are plain word equality.
func (v *verifier) beginEval(k int) {
	v.wpk = 1
	if k > 6 {
		v.wpk = 1 << (k - 6)
	}
	v.tables = v.tables[:0]
	if len(v.memoEp) < v.g.NumNodes() {
		v.memoEp = make([]uint32, v.g.NumNodes())
		v.slot = make([]int32, v.g.NumNodes())
		v.epoch = 0
	}
	v.epoch++
	if v.epoch == 0 { // epoch counter wrapped: invalidate all stamps
		clear(v.memoEp)
		v.epoch = 1
	}
}

// table returns the memo's i-th table.
func (v *verifier) table(i int) []uint64 { return v.tables[i*v.wpk : (i+1)*v.wpk] }

// varMap assigns truth-table variable positions to the PIs in mask.
func (v *verifier) varMap(mask uint64) int {
	k := 0
	for pi := 0; pi < 64; pi++ {
		if mask>>pi&1 == 1 {
			v.vm[pi] = k
			k++
		}
	}
	return k
}

// varFill writes the projection table of variable x (of k) into dst,
// replicated across the word for x < 6 — mirroring truth.Var.
var varMasks = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

func varFill(dst []uint64, x int) {
	if x < 6 {
		m := varMasks[x]
		for i := range dst {
			dst[i] = m
		}
		return
	}
	period := 1 << (x - 6 + 1)
	half := 1 << (x - 6)
	for i := range dst {
		if i%period >= half {
			dst[i] = ^uint64(0)
		} else {
			dst[i] = 0
		}
	}
}

// coneTT evaluates node n's function into the memo and returns its
// table's index. AND nodes fuse the fanin complements into the
// conjunction, so a cone evaluation writes each word exactly once and,
// once the memo has grown to the cone, allocates nothing.
func (v *verifier) coneTT(n int32) int {
	if v.memoEp[n] == v.epoch {
		return int(v.slot[n])
	}
	var i0, i1 int
	var f0, f1 aig.Lit
	isAnd := v.g.IsAnd(n)
	if isAnd {
		f0, f1 = v.g.Fanins(n)
		i0 = v.coneTT(f0.Node())
		i1 = v.coneTT(f1.Node())
	}
	i := len(v.tables) / v.wpk
	v.tables = slices.Grow(v.tables, v.wpk)[:len(v.tables)+v.wpk]
	t := v.table(i)
	switch {
	case isAnd:
		t0, t1 := v.table(i0), v.table(i1)
		var m0, m1 uint64
		if f0.IsCompl() {
			m0 = ^uint64(0)
		}
		if f1.IsCompl() {
			m1 = ^uint64(0)
		}
		for w := range t {
			t[w] = (t0[w] ^ m0) & (t1[w] ^ m1)
		}
	case n == 0:
		clear(t)
	default:
		varFill(t, v.vm[n-1])
	}
	v.memoEp[n] = v.epoch
	v.slot[n] = int32(i)
	return i
}

// verifiable reports whether the union support of the given nodes is
// small enough for exact verification; callers use it to skip screening
// candidates that could never be accepted.
func (v *verifier) verifiable(nodes ...int32) bool {
	var mask uint64
	for _, n := range nodes {
		mask |= v.sup[n]
	}
	return bits.OnesCount64(mask) <= exactVerifyMaxSupport
}

// equal proves (or refutes) a == b up to the given complement. The second
// return is false when the union support is too large to verify, in which
// case the caller must not merge.
func (v *verifier) equal(a, b int32, compl bool) (eq, verified bool) {
	mask := v.sup[a] | v.sup[b]
	if bits.OnesCount64(mask) > exactVerifyMaxSupport {
		return false, false
	}
	v.beginEval(v.varMap(mask))
	ia := v.coneTT(a)
	ib := v.coneTT(b)
	ta, tb := v.table(ia), v.table(ib)
	var mc uint64
	if compl {
		mc = ^uint64(0)
	}
	for i := range ta {
		if ta[i]^tb[i]^mc != 0 {
			return false, true
		}
	}
	return true, true
}

// andEquals proves n == outC ^ ((d0^i0) · (d1^i1)) exactly, with the same
// support bound.
func (v *verifier) andEquals(n, d0, d1 int32, i0, i1, outC bool) (eq, verified bool) {
	mask := v.sup[n] | v.sup[d0] | v.sup[d1]
	if bits.OnesCount64(mask) > exactVerifyMaxSupport {
		return false, false
	}
	v.beginEval(v.varMap(mask))
	xn := v.coneTT(n)
	x0 := v.coneTT(d0)
	x1 := v.coneTT(d1)
	tn, t0, t1 := v.table(xn), v.table(x0), v.table(x1)
	var m0, m1, mo uint64
	if i0 {
		m0 = ^uint64(0)
	}
	if i1 {
		m1 = ^uint64(0)
	}
	if outC {
		mo = ^uint64(0)
	}
	for i := range tn {
		if (t0[i]^m0)&(t1[i]^m1)^mo != tn[i] {
			return false, true
		}
	}
	return true, true
}
