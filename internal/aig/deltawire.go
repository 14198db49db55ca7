package aig

import (
	"encoding/binary"
	"fmt"
)

// Delta wire format: a compact serialization of an AIG *against a base
// graph both sides already hold*, the transfer unit of the distributed
// sweep (internal/shard). A graph whose structure largely survives from
// the base — the common case for annealer results, which are rewrites of
// the swept root — costs one tagged varint per shared node instead of
// two fanin varints, and the base itself never crosses the wire again.
//
// The encoding walks the graph's AND nodes in index order and emits, per
// node, either a back-reference into the base (the node's fanin pair,
// translated through the references emitted so far, is a strashed pair
// of the base) or the explicit fanin literals. Matching is the same
// greedy strash-lookup Rebase performs — for a graph produced by
// b.Rebase(base, g) the back-referenced set is exactly the rebased
// graph's matched prefix — but unlike Rebase the encoder never
// reorders: DecodeDelta reconstructs the node array bit-for-bit (same
// node order, same fanin literal order, same PO list), which is what
// lets the shard layer prove its results byte-identical to local
// evaluation.

// deltaWireVersion guards the self-describing header of EncodeDelta so
// a protocol mismatch fails loudly instead of mis-decoding.
const deltaWireVersion = 1

// EncodeDelta serializes g against base. The two graphs must agree on
// the PI count (the shared dictionary is meaningless otherwise); any
// structural relationship beyond that is optional — a g sharing nothing
// with base still encodes, as all-explicit nodes. The result decodes
// with DecodeDelta against the same base to a graph whose node array,
// fanin order, and PO list are identical to g's.
func EncodeDelta(base, g *AIG) ([]byte, error) {
	if base.numPIs != g.numPIs {
		return nil, fmt.Errorf("aig: EncodeDelta: PI count mismatch (base %d, g %d)", base.numPIs, g.numPIs)
	}
	pairs := base.PairIndex()
	buf := make([]byte, 0, 4*g.NumAnds()+16)
	buf = append(buf, deltaWireVersion)
	buf = binary.AppendUvarint(buf, uint64(g.numPIs))
	buf = binary.AppendUvarint(buf, uint64(g.NumAnds()))
	buf = binary.AppendUvarint(buf, uint64(len(g.pos)))

	// match[i] is the base node g node i is a back-reference to, -1 when
	// explicit. Constants and PIs map to themselves by construction.
	first := int(g.FirstAnd())
	match := make([]int32, g.NumNodes())
	for i := range match {
		match[i] = -1
	}
	for i := 0; i < first; i++ {
		match[i] = int32(i)
	}
	// A base node may be claimed only once: later back-references
	// translate their fanins through the claim map the decoder rebuilds,
	// so the inverse mapping must be unambiguous (same rule as Rebase).
	// Claims run roughly in ascending base order, so the reference is
	// zigzag-delta-coded against the previous claim — one byte in the
	// common case; explicit nodes are coded AIGER-style (gaps from the
	// defining index), with a swap bit preserving the stored fanin order.
	taken := make(map[int32]bool)
	prevClaim := int64(first) - 1
	for i := first; i < g.NumNodes(); i++ {
		nd := g.nodes[i]
		m0 := match[nd.fanin0.Node()]
		m1 := match[nd.fanin1.Node()]
		if m0 >= 0 && m1 >= 0 {
			t0 := MakeLit(m0, nd.fanin0.IsCompl())
			t1 := MakeLit(m1, nd.fanin1.IsCompl())
			if p, ok := pairs[pairKeyNorm(t0, t1)]; ok && !taken[p] {
				taken[p] = true
				match[i] = p
				// The base stores the pair in its own order; a swap bit
				// tells the decoder which order g stores it in, so the
				// reconstructed node compares equal, not just isomorphic.
				b0, _ := base.Fanins(p)
				swapped := uint64(0)
				if t0 != b0 {
					swapped = 1
				}
				gap := int64(p) - prevClaim
				prevClaim = int64(p)
				buf = binary.AppendUvarint(buf, zigzag(gap)<<2|swapped<<1|1)
				continue
			}
		}
		// Explicit node: lhs > rhs0 >= rhs1 holds after normalizing, so
		// both gaps are nonnegative and usually tiny.
		lhs := uint64(i) << 1
		rhs0, rhs1 := uint64(nd.fanin0), uint64(nd.fanin1)
		swapped := uint64(0)
		if rhs0 < rhs1 {
			rhs0, rhs1 = rhs1, rhs0
			swapped = 1
		}
		buf = binary.AppendUvarint(buf, (lhs-rhs0)<<2|swapped<<1)
		buf = binary.AppendUvarint(buf, rhs0-rhs1)
	}
	for _, po := range g.pos {
		buf = binary.AppendUvarint(buf, uint64(po))
	}
	return buf, nil
}

// DecodeDelta reconstructs the graph EncodeDelta serialized against
// base. The base must be the same graph (structurally) the encoder
// used; every back-reference and literal is bounds-checked, so a
// mismatched or corrupted record returns an error rather than a
// malformed graph. The result is a fresh AIG — node array, fanin order,
// and PO list bit-identical to the encoder's input.
func DecodeDelta(base *AIG, data []byte) (*AIG, error) {
	if len(data) == 0 || data[0] != deltaWireVersion {
		return nil, fmt.Errorf("aig: DecodeDelta: bad version byte")
	}
	data = data[1:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("aig: DecodeDelta: truncated record")
		}
		data = data[n:]
		return v, nil
	}
	numPIs, err := next()
	if err != nil {
		return nil, err
	}
	if int(numPIs) != base.numPIs {
		return nil, fmt.Errorf("aig: DecodeDelta: record has %d PIs, base has %d", numPIs, base.numPIs)
	}
	numAnds, err := next()
	if err != nil {
		return nil, err
	}
	numPOs, err := next()
	if err != nil {
		return nil, err
	}
	// Every AND costs at least one tag byte and every PO one literal
	// byte, so the declared counts are bounded by the record itself —
	// rejecting length bombs before allocating.
	if numAnds > uint64(len(data)) || numPOs > uint64(len(data)) {
		return nil, fmt.Errorf("aig: DecodeDelta: declared sizes exceed record length")
	}
	first := int(numPIs) + 1
	numNodes := first + int(numAnds)
	g := &AIG{
		nodes:  make([]node, numNodes),
		numPIs: int(numPIs),
		pos:    make([]Lit, numPOs),
	}
	for i := 0; i < first; i++ {
		g.nodes[i] = node{noFanin, noFanin}
	}
	// baseToNext inverts the encoder's claim map: base node -> the node
	// of the graph under reconstruction that back-referenced it.
	baseToNext := make([]int32, base.NumNodes())
	for i := range baseToNext {
		baseToNext[i] = -1
	}
	for i := 0; i < first && i < len(baseToNext); i++ {
		baseToNext[i] = int32(i)
	}
	// baseFirst guards claims against the base's own PI boundary (the
	// encoder only ever claims base AND nodes).
	baseFirst := int64(base.FirstAnd())
	prevClaim := int64(first) - 1
	for i := first; i < numNodes; i++ {
		tag, err := next()
		if err != nil {
			return nil, err
		}
		if tag&1 == 1 {
			p := prevClaim + unzigzag(tag>>2)
			prevClaim = p
			if p < baseFirst || p >= int64(base.NumNodes()) {
				return nil, fmt.Errorf("aig: DecodeDelta: node %d references base node %d out of range", i, p)
			}
			if baseToNext[p] >= 0 {
				return nil, fmt.Errorf("aig: DecodeDelta: base node %d claimed twice", p)
			}
			b0, b1 := base.Fanins(int32(p))
			if tag&2 != 0 {
				b0, b1 = b1, b0
			}
			t0, ok0 := translateBaseLit(b0, baseToNext)
			t1, ok1 := translateBaseLit(b1, baseToNext)
			if !ok0 || !ok1 {
				return nil, fmt.Errorf("aig: DecodeDelta: node %d references base node %d with unclaimed fanins", i, p)
			}
			if int(t0.Node()) >= i || int(t1.Node()) >= i {
				return nil, fmt.Errorf("aig: DecodeDelta: node %d not topologically ordered", i)
			}
			baseToNext[p] = int32(i)
			g.nodes[i] = node{t0, t1}
			continue
		}
		d0 := tag >> 2
		d1, err := next()
		if err != nil {
			return nil, err
		}
		lhs := uint64(i) << 1
		if d0 == 0 || d0 > lhs {
			return nil, fmt.Errorf("aig: DecodeDelta: node %d has bad fanin gap %d", i, d0)
		}
		rhs0 := lhs - d0
		if d1 > rhs0 {
			return nil, fmt.Errorf("aig: DecodeDelta: node %d has bad fanin gap %d", i, d1)
		}
		rhs1 := rhs0 - d1
		f0, f1 := Lit(rhs0), Lit(rhs1)
		if tag&2 != 0 {
			f0, f1 = f1, f0
		}
		g.nodes[i] = node{f0, f1}
	}
	for j := range g.pos {
		po, err := next()
		if err != nil {
			return nil, err
		}
		if int64(po>>1) >= int64(numNodes) {
			return nil, fmt.Errorf("aig: DecodeDelta: PO %d literal out of range", j)
		}
		g.pos[j] = Lit(po)
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("aig: DecodeDelta: %d trailing bytes", len(data))
	}
	return g, nil
}

// translateBaseLit maps a base-graph literal into the decoder's index
// space through the claim map; ok is false when the referenced base
// node has not been claimed (constants and PIs always translate).
func translateBaseLit(l Lit, baseToNext []int32) (Lit, bool) {
	n := l.Node()
	if int(n) >= len(baseToNext) || baseToNext[n] < 0 {
		return 0, false
	}
	return MakeLit(baseToNext[n], l.IsCompl()), true
}

// DeltaWireMatched reports how many AND nodes of the encoded record are
// back-references into the base versus explicit definitions — the
// transfer-size split the shard layer's byte accounting reports. It
// only reads the record's tags, never reconstructs the graph.
func DeltaWireMatched(data []byte) (matched, explicit int, err error) {
	if len(data) == 0 || data[0] != deltaWireVersion {
		return 0, 0, fmt.Errorf("aig: DeltaWireMatched: bad version byte")
	}
	data = data[1:]
	next := func() (uint64, error) {
		v, n := binary.Uvarint(data)
		if n <= 0 {
			return 0, fmt.Errorf("aig: DeltaWireMatched: truncated record")
		}
		data = data[n:]
		return v, nil
	}
	if _, err := next(); err != nil { // numPIs
		return 0, 0, err
	}
	numAnds, err := next()
	if err != nil {
		return 0, 0, err
	}
	if _, err := next(); err != nil { // numPOs
		return 0, 0, err
	}
	for i := uint64(0); i < numAnds; i++ {
		tag, err := next()
		if err != nil {
			return 0, 0, err
		}
		if tag&1 == 1 {
			matched++
			continue
		}
		explicit++
		if _, err := next(); err != nil {
			return 0, 0, err
		}
	}
	return matched, explicit, nil
}

// zigzag maps a signed gap onto the unsigned varint space so small
// negative steps stay one byte (the standard protobuf transform).
func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
