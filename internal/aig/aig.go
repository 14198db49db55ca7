package aig

import "fmt"

// Lit is an AIG literal: node index << 1 | complement bit.
type Lit uint32

// Predefined literals for the constant node.
const (
	ConstFalse Lit = 0 // constant false (node 0, plain)
	ConstTrue  Lit = 1 // constant true (node 0, complemented)
)

// MakeLit builds a literal from a node index and a complement flag.
func MakeLit(node int32, compl bool) Lit {
	l := Lit(node) << 1
	if compl {
		l |= 1
	}
	return l
}

// Node returns the node index of the literal.
func (l Lit) Node() int32 { return int32(l >> 1) }

// IsCompl reports whether the literal is complemented.
func (l Lit) IsCompl() bool { return l&1 == 1 }

// Not returns the complemented literal.
func (l Lit) Not() Lit { return l ^ 1 }

// NotIf returns the literal complemented when c is true.
func (l Lit) NotIf(c bool) Lit {
	if c {
		return l ^ 1
	}
	return l
}

// Regular returns the non-complemented version of the literal.
func (l Lit) Regular() Lit { return l &^ 1 }

// IsConst reports whether the literal refers to the constant node.
func (l Lit) IsConst() bool { return l>>1 == 0 }

// String renders the literal as nN / !nN for debugging.
func (l Lit) String() string {
	if l.IsCompl() {
		return fmt.Sprintf("!n%d", l.Node())
	}
	return fmt.Sprintf("n%d", l.Node())
}

// node is a single AND node. Primary inputs and the constant node store
// the sentinel value noFanin in both fields.
type node struct {
	fanin0, fanin1 Lit
}

const noFanin = Lit(0xffffffff)

// AIG is an immutable-after-construction And-Inverter Graph. Use a Builder
// to create one, or Parse to read the textual format.
type AIG struct {
	nodes  []node
	numPIs int
	pos    []Lit

	// lazily computed caches; reset by Builder mutations
	levels  []int32
	fanouts []int32
	pairs   map[uint64]int32
}

// NumPIs returns the number of primary inputs.
func (g *AIG) NumPIs() int { return g.numPIs }

// NumPOs returns the number of primary outputs.
func (g *AIG) NumPOs() int { return len(g.pos) }

// NumAnds returns the number of AND nodes (the paper's "node count" /
// area proxy).
func (g *AIG) NumAnds() int { return len(g.nodes) - 1 - g.numPIs }

// NumNodes returns the total number of nodes including the constant node
// and primary inputs.
func (g *AIG) NumNodes() int { return len(g.nodes) }

// PI returns the literal of the i-th primary input (0-based).
func (g *AIG) PI(i int) Lit {
	if i < 0 || i >= g.numPIs {
		panic(fmt.Sprintf("aig: PI index %d out of range [0,%d)", i, g.numPIs))
	}
	return MakeLit(int32(i+1), false)
}

// PO returns the literal driving the i-th primary output.
func (g *AIG) PO(i int) Lit { return g.pos[i] }

// POs returns the primary output literals (the caller must not modify the
// returned slice).
func (g *AIG) POs() []Lit { return g.pos }

// IsPI reports whether n is a primary input node index.
func (g *AIG) IsPI(n int32) bool { return n >= 1 && int(n) <= g.numPIs }

// IsAnd reports whether n is an AND node index.
func (g *AIG) IsAnd(n int32) bool { return int(n) > g.numPIs && int(n) < len(g.nodes) }

// Fanins returns the two fanin literals of an AND node.
func (g *AIG) Fanins(n int32) (Lit, Lit) {
	nd := g.nodes[n]
	return nd.fanin0, nd.fanin1
}

// FirstAnd returns the node index of the first AND node.
func (g *AIG) FirstAnd() int32 { return int32(g.numPIs + 1) }

// Builder incrementally constructs an AIG with structural hashing.
// NewBuilder returns one ready to build; the zero value is ready for
// Reset, Compact and Rebase.
//
// A Builder keeps its storage across graphs: Reset, Compact and Rebase
// reuse the node array, the strash table and the per-node scratch of
// earlier calls, so a caller that holds a Builder, as the transform
// layer's movers do, rebuilds graph after graph without allocating.
// Each of them costs time in proportion to the graph it works on, not
// to the largest graph the storage has held.
type Builder struct {
	g AIG // the graph under construction; And keeps g.levels current

	// strash is an open-addressed table of the AND nodes by fanin
	// pair: a power-of-two number of slots probed linearly, at most
	// half full. A zero key marks an empty slot (no stored pair has
	// fanin1 below 2).
	keys  []uint64
	vals  []int32
	shift uint // 64 - log2(len(keys)): strashSlot keeps the top bits
	used  int

	// scratch of Compact and Rebase, indexed by the node numbers of the
	// graph they read
	remap []Lit
	mark  []bool
	match []int32
	owner []int32
}

// NewBuilder returns a builder for an AIG with numPIs primary inputs.
func NewBuilder(numPIs int) *Builder {
	b := new(Builder)
	b.Reset(numPIs, 0)
	return b
}

// Reset starts a new graph of numPIs primary inputs in b's retained
// storage, with the strash table sized for about ands AND nodes (it
// grows past that as needed). A graph returned by Graph or Compact
// before is overwritten.
func (b *Builder) Reset(numPIs, ands int) {
	n := numPIs + 1
	nodes := b.g.nodes[:0]
	if cap(nodes) < n+ands {
		nodes = make([]node, 0, n+ands)
	}
	levels := b.g.levels[:0]
	if cap(levels) < n+ands {
		levels = make([]int32, 0, n+ands)
	}
	nodes = nodes[:n]
	for i := range nodes {
		nodes[i] = node{noFanin, noFanin}
	}
	levels = levels[:n]
	clear(levels)
	b.g = AIG{nodes: nodes, numPIs: numPIs, pos: b.g.pos[:0], levels: levels, fanouts: b.g.fanouts[:0]}
	b.resizeStrash(ands)
}

// resizeStrash empties the strash table and sizes it for ands nodes:
// the smallest power of two of at least 16 slots and twice ands.
func (b *Builder) resizeStrash(ands int) {
	size, lg := 16, uint(4)
	for size < 2*ands {
		size <<= 1
		lg++
	}
	if cap(b.keys) < size {
		b.keys = make([]uint64, size)
		b.vals = make([]int32, size)
	} else {
		b.keys = b.keys[:size]
		b.vals = b.vals[:size]
		clear(b.keys)
	}
	b.shift = 64 - lg
	b.used = 0
}

// strashSlot returns the slot holding key, or the empty slot where it
// belongs.
func (b *Builder) strashSlot(key uint64) int {
	mask := len(b.keys) - 1
	i := int((key * 0x9E3779B97F4A7C15) >> b.shift)
	for b.keys[i] != 0 && b.keys[i] != key {
		i = (i + 1) & mask
	}
	return i
}

// Graph returns the graph built so far. It belongs to b: it stays valid
// until b's next Reset, Compact or Build, and later And and AddPO calls
// extend it. Its level cache is kept current by And, so Levels costs
// nothing.
func (b *Builder) Graph() *AIG { return &b.g }

// LevelOf returns the logic level of a literal's node in the AIG under
// construction (PIs and the constant are level 0).
func (b *Builder) LevelOf(l Lit) int32 { return b.g.levels[l.Node()] }

// PI returns the literal of the i-th primary input.
func (b *Builder) PI(i int) Lit { return b.g.PI(i) }

// NumPIs returns the number of primary inputs.
func (b *Builder) NumPIs() int { return b.g.numPIs }

// NumAnds returns the number of AND nodes created so far.
func (b *Builder) NumAnds() int { return b.g.NumAnds() }

// And returns a literal for the conjunction of a and b, reusing an existing
// node when one computes the same function structurally and simplifying
// the trivial cases.
func (b *Builder) And(a, c Lit) Lit {
	// Normalize order: larger literal first (ABC convention keeps
	// fanin0 >= fanin1; any consistent order works for hashing).
	if a < c {
		a, c = c, a
	}
	// Trivial cases.
	switch {
	case c == ConstFalse:
		return ConstFalse
	case c == ConstTrue:
		return a
	case a == c:
		return a
	case a == c.Not():
		return ConstFalse
	}
	key := uint64(a)<<32 | uint64(c)
	i := b.strashSlot(key)
	if b.keys[i] == key {
		return MakeLit(b.vals[i], false)
	}
	g := &b.g
	n := int32(len(g.nodes))
	g.nodes = append(g.nodes, node{a, c})
	g.levels = append(g.levels, max(g.levels[a.Node()], g.levels[c.Node()])+1)
	g.pairs = nil
	b.keys[i] = key
	b.vals[i] = n
	if b.used++; 2*b.used > len(b.keys) {
		b.rehash()
	}
	return MakeLit(n, false)
}

// rehash doubles the strash table and re-enters every AND node; each
// node is in the table exactly once, so the node array is the source.
func (b *Builder) rehash() {
	b.resizeStrash(len(b.keys))
	for x := b.g.FirstAnd(); x < int32(len(b.g.nodes)); x++ {
		nd := b.g.nodes[x]
		key := uint64(nd.fanin0)<<32 | uint64(nd.fanin1)
		i := b.strashSlot(key)
		b.keys[i] = key
		b.vals[i] = x
	}
	b.used = b.g.NumAnds()
}

// Or returns a literal for the disjunction of a and b.
func (b *Builder) Or(a, c Lit) Lit { return b.And(a.Not(), c.Not()).Not() }

// Xor returns a literal for the exclusive-or of a and b.
func (b *Builder) Xor(a, c Lit) Lit {
	// a^c = (a·!c) + (!a·c)
	t0 := b.And(a, c.Not())
	t1 := b.And(a.Not(), c)
	return b.Or(t0, t1)
}

// Xnor returns a literal for the complement of the exclusive-or.
func (b *Builder) Xnor(a, c Lit) Lit { return b.Xor(a, c).Not() }

// Mux returns a literal for (sel ? t : e).
func (b *Builder) Mux(sel, t, e Lit) Lit {
	a0 := b.And(sel, t)
	a1 := b.And(sel.Not(), e)
	return b.Or(a0, a1)
}

// Maj returns the majority of three literals.
func (b *Builder) Maj(a, c, d Lit) Lit {
	ab := b.And(a, c)
	ad := b.And(a, d)
	cd := b.And(c, d)
	return b.Or(ab, b.Or(ad, cd))
}

// AndN folds And over the given literals; an empty list yields ConstTrue.
func (b *Builder) AndN(ls ...Lit) Lit {
	out := ConstTrue
	for _, l := range ls {
		out = b.And(out, l)
	}
	return out
}

// OrN folds Or over the given literals; an empty list yields ConstFalse.
func (b *Builder) OrN(ls ...Lit) Lit {
	out := ConstFalse
	for _, l := range ls {
		out = b.Or(out, l)
	}
	return out
}

// AddPO registers l as the next primary output and returns its index.
func (b *Builder) AddPO(l Lit) int {
	b.g.pos = append(b.g.pos, l)
	b.g.fanouts = b.g.fanouts[:0]
	return len(b.g.pos) - 1
}

// Build finalizes and returns the AIG, which takes the builder's node
// storage with it: b keeps only its strash table and scratch, and must
// be Reset before it builds again.
func (b *Builder) Build() *AIG {
	g := b.g
	b.g = AIG{}
	return &g
}

// Copy returns a deep copy of the AIG.
func (g *AIG) Copy() *AIG {
	ng := &AIG{
		nodes:  append([]node(nil), g.nodes...),
		numPIs: g.numPIs,
		pos:    append([]Lit(nil), g.pos...),
	}
	return ng
}

// Levels returns per-node logic levels: the constant and PIs are at level 0,
// and an AND node is one more than the maximum of its fanin levels. The
// returned slice is cached; callers must not modify it.
func (g *AIG) Levels() []int32 {
	if len(g.levels) == len(g.nodes) {
		return g.levels
	}
	lv := resize(g.levels, len(g.nodes))
	clear(lv[:g.numPIs+1])
	for i := g.numPIs + 1; i < len(g.nodes); i++ {
		nd := g.nodes[i]
		lv[i] = max(lv[nd.fanin0.Node()], lv[nd.fanin1.Node()]) + 1
	}
	g.levels = lv
	return lv
}

// resize returns s with length n, reusing its storage when it is large
// enough. Its contents are unspecified.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// MaxLevel returns the number of AIG levels over all primary outputs (the
// paper's delay proxy). A PO driven directly by a PI or constant contributes
// level 0.
func (g *AIG) MaxLevel() int32 {
	lv := g.Levels()
	var m int32
	for _, po := range g.pos {
		if l := lv[po.Node()]; l > m {
			m = l
		}
	}
	return m
}

// FanoutCounts returns the number of fanout references of every node:
// occurrences as a fanin of an AND node plus occurrences as a PO driver.
// The returned slice is cached; callers must not modify it.
func (g *AIG) FanoutCounts() []int32 {
	if len(g.fanouts) == len(g.nodes) {
		return g.fanouts
	}
	fo := resize(g.fanouts, len(g.nodes))
	clear(fo)
	for i := g.numPIs + 1; i < len(g.nodes); i++ {
		nd := g.nodes[i]
		fo[nd.fanin0.Node()]++
		fo[nd.fanin1.Node()]++
	}
	for _, po := range g.pos {
		fo[po.Node()]++
	}
	g.fanouts = fo
	return fo
}

// Compact returns a functionally identical AIG containing only nodes
// reachable from the primary outputs, rebuilt with structural hashing
// (so duplicate or trivially reducible structure is also removed).
func (g *AIG) Compact() *AIG {
	var b Builder
	b.Compact(g)
	return b.Build()
}

// Compact resets b to the compaction of g (see AIG.Compact) and returns
// it as b's graph, valid as Graph's is. g must not be b's own graph.
func (b *Builder) Compact(g *AIG) *AIG {
	b.mark = g.markReachable(b.mark)
	m := resize(b.remap, len(g.nodes))
	b.remap = m
	b.Reset(g.numPIs, g.NumAnds())
	m[0] = ConstFalse
	for i := 1; i <= g.numPIs; i++ {
		m[i] = b.PI(i - 1)
	}
	for i := g.numPIs + 1; i < len(g.nodes); i++ {
		if !b.mark[i] {
			continue
		}
		nd := g.nodes[i]
		f0 := m[nd.fanin0.Node()].NotIf(nd.fanin0.IsCompl())
		f1 := m[nd.fanin1.Node()].NotIf(nd.fanin1.IsCompl())
		m[i] = b.And(f0, f1)
	}
	for _, po := range g.pos {
		b.AddPO(m[po.Node()].NotIf(po.IsCompl()))
	}
	return &b.g
}

// markReachable marks, in mark's storage, the nodes in the transitive
// fanin of any PO. Topological order lets one backward pass settle
// every node: its fanouts all come after it.
func (g *AIG) markReachable(mark []bool) []bool {
	mark = resize(mark, len(g.nodes))
	clear(mark)
	for _, po := range g.pos {
		mark[po.Node()] = true
	}
	for i := len(g.nodes) - 1; i > g.numPIs; i-- {
		if mark[i] {
			nd := g.nodes[i]
			mark[nd.fanin0.Node()] = true
			mark[nd.fanin1.Node()] = true
		}
	}
	return mark
}

// DanglingCount returns the number of AND nodes not reachable from any PO.
func (g *AIG) DanglingCount() int {
	mark := g.markReachable(nil)
	n := 0
	for i := g.numPIs + 1; i < len(g.nodes); i++ {
		if !mark[i] {
			n++
		}
	}
	return n
}

// Stats summarizes an AIG for logging and feature extraction.
type Stats struct {
	PIs, POs, Ands int
	Levels         int32
}

// Stats returns summary statistics for the AIG.
func (g *AIG) Stats() Stats {
	return Stats{
		PIs:    g.numPIs,
		POs:    len(g.pos),
		Ands:   g.NumAnds(),
		Levels: g.MaxLevel(),
	}
}

// String renders the stats in compact key=value form.
func (s Stats) String() string {
	return fmt.Sprintf("pi=%d po=%d and=%d lev=%d", s.PIs, s.POs, s.Ands, s.Levels)
}

// Hash returns a structural hash of the AIG (node array plus outputs).
// Equal hashes strongly suggest (but do not prove) identical structure;
// it is used to deduplicate generated AIG variants.
func (g *AIG) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(g.numPIs))
	for i := g.numPIs + 1; i < len(g.nodes); i++ {
		nd := g.nodes[i]
		mix(uint64(nd.fanin0)<<32 | uint64(nd.fanin1))
	}
	for _, po := range g.pos {
		mix(uint64(po) | 1<<63)
	}
	return h
}

// StructuralEqual reports whether g and o are identical as stored graphs:
// same PI count, same node array (fanin literals in the same order), and
// same PO literals. This is the exact predicate behind the evaluation
// layer's memo cache — structurally equal AIGs are indistinguishable to
// every deterministic downstream pipeline (mapping, STA, features), so
// their evaluation results are interchangeable. It is stricter than
// functional equivalence: two equivalent but differently structured AIGs
// compare unequal.
func (g *AIG) StructuralEqual(o *AIG) bool {
	if g == o {
		return true
	}
	if g.numPIs != o.numPIs || len(g.nodes) != len(o.nodes) || len(g.pos) != len(o.pos) {
		return false
	}
	for i := range g.nodes {
		if g.nodes[i] != o.nodes[i] {
			return false
		}
	}
	for i := range g.pos {
		if g.pos[i] != o.pos[i] {
			return false
		}
	}
	return true
}

// TopoForEachAnd calls f for every AND node in topological order.
func (g *AIG) TopoForEachAnd(f func(n int32, f0, f1 Lit)) {
	for i := g.numPIs + 1; i < len(g.nodes); i++ {
		nd := g.nodes[i]
		f(int32(i), nd.fanin0, nd.fanin1)
	}
}
