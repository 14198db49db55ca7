package techmap

import (
	"fmt"
	"math"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/netlist"
	"aigtimer/internal/truth"
)

// Params configures mapping. The zero value of a field selects the
// DefaultParams value for that field.
type Params struct {
	// Cut bounds the priority-cut enumeration feeding match selection
	// (cut width K <= 4, cuts retained per node). Wider budgets find
	// better matches at roughly quadratic enumeration cost — the knob
	// signoff's high-effort second pass turns up.
	Cut cut.Params
	// NominalLoadFF is the output load (fF) assumed while ranking
	// matches and sizing gates; the real per-net load is only known
	// after emission, when STA measures it.
	NominalLoadFF float64
	// AreaRecovery enables the required-time sizing pass: off-critical
	// gates are downsized to the cheapest drive strength that still
	// meets the mapped netlist's own worst arrival. Structure never
	// changes, so area is monotonically non-increasing.
	AreaRecovery bool
}

// DefaultParams is a sensible delay-oriented configuration.
var DefaultParams = Params{
	Cut:           cut.Params{K: 4, MaxCuts: 8},
	NominalLoadFF: 4.0,
	AreaRecovery:  true,
}

// phase selects a signal polarity: pos is the node's function, neg its
// complement.
const (
	pos = 0
	neg = 1
)

type implKind uint8

const (
	kindNone implKind = iota
	kindGate          // a library cell over a cut
	kindInv           // inverter over the opposite phase
	kindWire          // alias of a leaf signal (degenerate cut function)
	kindTie           // constant cut function
)

// impl is one realization of (node, phase).
type impl struct {
	kind      implKind
	cutIdx    int
	match     cell.Match
	leaf      int32 // kindWire: aliased node
	leafPhase int   // kindWire: aliased phase
	tieVal    bool  // kindTie
	arrival   float64
	area      float64
}

// projections[j] is the padded table of "leaf j" as a function.
var projections = [4]uint16{
	truth.PadTo4(0xA, 2),
	truth.PadTo4(0xC, 2),
	truth.TransformPins(truth.PadTo4(0xA, 2), 4, []int{2, 0, 0, 0}, 0),
	truth.TransformPins(truth.PadTo4(0xA, 2), 4, []int{3, 0, 0, 0}, 0),
}

// markItem is one (node, phase) work unit of markUsed.
type markItem struct {
	n  int32
	ph int
}

// Scratch holds every per-call working buffer of the mapping pipeline —
// match selection state, area-recovery overlays, the emit memo, and the
// cut-enumeration scratch — reused across calls so a retained evaluation
// pipeline performs no steady-state allocations while mapping. A Scratch
// serves one mapping at a time.
type Scratch struct {
	direct [][2]impl
	used   [][2]bool
	req    [][2]float64
	sized  [][2]impl
	stack  []markItem
	inv    []int32
	memo   [2][]netlist.NetID
	nm     netlist.NetMap
	cands  []impl
	cuts   cut.Scratch
	// m is the pipeline's mapper for the in-flight call. It lives here
	// rather than on the caller's stack because its address flows into
	// the emitter and would otherwise escape — one heap allocation per
	// mapping on an otherwise allocation-free path.
	m mapper
}

// mapper resets sc.m for a new mapping call and returns it.
func (sc *Scratch) mapper() *mapper {
	sc.m = mapper{}
	return &sc.m
}

// growImpls returns b resized to n, contents unspecified.
func growImpls(b [][2]impl, n int) [][2]impl {
	if cap(b) < n {
		return make([][2]impl, n)
	}
	return b[:n]
}

type mapper struct {
	g    *aig.AIG
	lib  *cell.Library
	p    Params
	cuts [][]cut.Cut
	// impls is the selectImpls output, retained by the State. eff is
	// what the global passes (markUsed, area recovery, emit) read: it
	// aliases impls until area recovery copies it into the sized overlay
	// — the pre-recovery impls are never mutated, so the State can
	// retain them without a defensive snapshot.
	impls [][2]impl
	eff   [][2]impl
	sc    *Scratch
}

// Map maps the AIG onto the library and returns the gate-level netlist.
// Use MapState instead to also retain the per-node mapping state that
// Remap needs for incremental re-mapping; Map itself skips that
// packaging (gate indexing), keeping the plain evaluation path lean.
func Map(g *aig.AIG, lib *cell.Library, p Params) (*netlist.Netlist, error) {
	m, err := runMapper(g, lib, p, nil, nil, nil)
	if err != nil {
		return nil, err
	}
	nl, _ := emitMapped(m, nil)
	return nl, nil
}

// invDelay returns the nominal delay of the shared inverter.
func (m *mapper) invDelay() float64 {
	return m.lib.Inverter().DelayPS(m.p.NominalLoadFF)
}

// arrivalOf returns the arrival time of (node, phase) under the
// effective implementation view, deriving the complement phase through
// an inverter when necessary.
func (m *mapper) arrivalOf(n int32, ph int) float64 {
	if !m.g.IsAnd(n) {
		// PIs and constants arrive at t=0; a PI's complement costs an
		// inverter, tie cells are free in either phase.
		if m.g.IsPI(n) && ph == neg {
			return m.invDelay()
		}
		return 0
	}
	return m.eff[n][ph].arrival
}

// selectImpls chooses the best implementation for both phases of every
// AND node with index >= from, in topological order. Impls of nodes
// below from must already be filled (the full pass starts at FirstAnd;
// the incremental pass starts past the translated matched prefix).
func (m *mapper) selectImpls(from int32) error {
	if from < m.g.FirstAnd() {
		from = m.g.FirstAnd()
	}
	for i := int(from); i < m.g.NumNodes(); i++ {
		if err := m.selectNode(int32(i)); err != nil {
			return err
		}
	}
	return nil
}

// selectNode chooses the best implementation for both phases of the AND
// node n, writing m.sc.direct[n] and m.impls[n] and reading only the
// impls of nodes inside n's cuts' leaf sets (all strictly below n).
func (m *mapper) selectNode(n int32) error {
	for ph := pos; ph <= neg; ph++ {
		best := impl{kind: kindNone, arrival: math.Inf(1)}
		for ci := range m.cuts[n] {
			c := &m.cuts[n][ci]
			if c.IsTrivial(n) || c.Size() == 0 {
				continue
			}
			tbl := c.Table
			if ph == neg {
				tbl = ^tbl
			}
			for _, cand := range m.cutCandidates(c, ci, tbl) {
				if better(cand, best) {
					best = cand
				}
			}
		}
		m.sc.direct[n][ph] = best
	}
	// Relax with the inverter alternative: phase ph via INV over the
	// direct impl of the opposite phase.
	for ph := pos; ph <= neg; ph++ {
		best := m.sc.direct[n][ph]
		other := m.sc.direct[n][1-ph]
		if other.kind != kindNone {
			cand := impl{
				kind:    kindInv,
				arrival: other.arrival + m.invDelay(),
				area:    m.lib.Inverter().AreaUM2,
			}
			if better(cand, best) {
				best = cand
			}
		}
		if best.kind == kindNone {
			return fmt.Errorf("techmap: node %d phase %d unmatchable with library %s", n, ph, m.lib.Name)
		}
		m.impls[n][ph] = best
	}
	return nil
}

// cutCandidates yields all realizations of the table tbl over cut c —
// tie cells for constants, wires for projections, and library matches —
// in the Scratch candidate buffer (valid until the next call).
func (m *mapper) cutCandidates(c *cut.Cut, ci int, tbl uint16) []impl {
	out := m.sc.cands[:0]
	switch tbl {
	case 0:
		out = append(out, impl{kind: kindTie, tieVal: false, area: m.lib.Tie(false).AreaUM2})
		m.sc.cands = out
		return out
	case 0xFFFF:
		out = append(out, impl{kind: kindTie, tieVal: true, area: m.lib.Tie(true).AreaUM2})
		m.sc.cands = out
		return out
	}
	for j, leaf := range c.Leaves() {
		if tbl == projections[j] {
			out = append(out, impl{
				kind: kindWire, leaf: leaf, leafPhase: pos,
				arrival: m.arrivalOf(leaf, pos),
			})
		}
		if tbl == ^projections[j] {
			out = append(out, impl{
				kind: kindWire, leaf: leaf, leafPhase: neg,
				arrival: m.arrivalOf(leaf, neg),
			})
		}
	}
	for _, match := range m.lib.Matches(tbl, c.Size()) {
		out = append(out, m.evalMatch(c, ci, match))
	}
	m.sc.cands = out
	return out
}

// evalMatch scores a cut/cell pairing under the nominal-load delay model.
func (m *mapper) evalMatch(c *cut.Cut, cutIdx int, match cell.Match) impl {
	d := match.Cell.DelayPS(m.p.NominalLoadFF)
	arr := 0.0
	for j := 0; j < match.Cell.NumInputs; j++ {
		leaf := c.Leaf(match.PinVar[j])
		ph := pos
		if match.PinInv>>j&1 == 1 {
			ph = neg
		}
		if a := m.arrivalOf(leaf, ph); a > arr {
			arr = a
		}
	}
	return impl{
		kind:    kindGate,
		cutIdx:  cutIdx,
		match:   match,
		arrival: arr + d,
		area:    match.Cell.AreaUM2,
	}
}

// better orders implementations by (arrival, area).
func better(a, b impl) bool {
	if a.kind == kindNone {
		return false
	}
	if b.kind == kindNone {
		return true
	}
	if a.arrival != b.arrival {
		return a.arrival < b.arrival
	}
	return a.area < b.area
}

// markUsed flags the (node, phase) pairs reachable from the POs through
// the chosen implementations.
func (m *mapper) markUsed() {
	m.sc.used = m.sc.used[:0]
	if cap(m.sc.used) < m.g.NumNodes() {
		m.sc.used = make([][2]bool, m.g.NumNodes())
	}
	m.sc.used = m.sc.used[:m.g.NumNodes()]
	for i := range m.sc.used {
		m.sc.used[i] = [2]bool{}
	}
	used := m.sc.used
	stack := m.sc.stack[:0]
	push := func(n int32, ph int) {
		if !m.g.IsAnd(n) {
			return
		}
		if !used[n][ph] {
			used[n][ph] = true
			stack = append(stack, markItem{n, ph})
		}
	}
	for _, po := range m.g.POs() {
		push(po.Node(), phaseOf(po))
	}
	for len(stack) > 0 {
		it := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		im := m.eff[it.n][it.ph]
		switch im.kind {
		case kindInv:
			push(it.n, 1-it.ph)
		case kindWire:
			push(im.leaf, im.leafPhase)
		case kindGate:
			c := &m.cuts[it.n][im.cutIdx]
			for j := 0; j < im.match.Cell.NumInputs; j++ {
				ph := pos
				if im.match.PinInv>>j&1 == 1 {
					ph = neg
				}
				push(c.Leaf(im.match.PinVar[j]), ph)
			}
		}
	}
	m.sc.stack = stack
}

func phaseOf(l aig.Lit) int {
	if l.IsCompl() {
		return neg
	}
	return pos
}

// recoverArea downsizes drive strengths off the critical path: for every
// used gate implementation, the cheapest cell with identical function and
// identical pin wiring that still meets the required time is selected.
// Because only the cell choice changes (never the structure), the total
// area is monotonically non-increasing.
//
// The pass operates on the sized overlay (m.eff), never on the
// selectImpls output: m.impls survives unmodified for the State to
// retain, which is what lets Remap translate pre-recovery choices
// without any defensive copy.
func (m *mapper) recoverArea() {
	m.sc.sized = growImpls(m.sc.sized, m.g.NumNodes())
	copy(m.sc.sized, m.impls)
	m.eff = m.sc.sized
	m.markUsed()
	used := m.sc.used
	if cap(m.sc.req) < m.g.NumNodes() {
		m.sc.req = make([][2]float64, m.g.NumNodes())
	}
	m.sc.req = m.sc.req[:m.g.NumNodes()]
	req := m.sc.req
	for i := range req {
		req[i][pos] = math.Inf(1)
		req[i][neg] = math.Inf(1)
	}
	maxArr := 0.0
	for _, po := range m.g.POs() {
		if a := m.arrivalOf(po.Node(), phaseOf(po)); a > maxArr {
			maxArr = a
		}
	}
	for _, po := range m.g.POs() {
		n := po.Node()
		ph := phaseOf(po)
		if m.g.IsAnd(n) && req[n][ph] > maxArr {
			req[n][ph] = maxArr
		}
	}
	// Propagate requirements in reverse topological order.
	for n := int32(m.g.NumNodes() - 1); n >= m.g.FirstAnd(); n-- {
		for ph := pos; ph <= neg; ph++ {
			if !used[n][ph] || math.IsInf(req[n][ph], 1) {
				continue
			}
			im := m.eff[n][ph]
			switch im.kind {
			case kindInv:
				lower(&req[n][1-ph], req[n][ph]-m.invDelay())
			case kindWire:
				if m.g.IsAnd(im.leaf) {
					lower(&req[im.leaf][im.leafPhase], req[n][ph])
				}
			case kindGate:
				c := &m.cuts[n][im.cutIdx]
				d := im.match.Cell.DelayPS(m.p.NominalLoadFF)
				for j := 0; j < im.match.Cell.NumInputs; j++ {
					lph := pos
					if im.match.PinInv>>j&1 == 1 {
						lph = neg
					}
					leaf := c.Leaf(im.match.PinVar[j])
					if m.g.IsAnd(leaf) {
						lower(&req[leaf][lph], req[n][ph]-d)
					}
				}
			}
		}
	}
	// Sizing pass in topological order: arrivals can only improve, so a
	// single forward pass is sound.
	m.g.TopoForEachAnd(func(n int32, f0, f1 aig.Lit) {
		for ph := pos; ph <= neg; ph++ {
			if !used[n][ph] {
				continue
			}
			im := m.eff[n][ph]
			if im.kind != kindGate {
				continue
			}
			r := req[n][ph]
			c := &m.cuts[n][im.cutIdx]
			tbl := c.Table
			if ph == neg {
				tbl = ^tbl
			}
			best := m.evalMatch(c, im.cutIdx, im.match) // refresh arrival
			for _, match := range m.lib.Matches(tbl, c.Size()) {
				if match.PinVar != im.match.PinVar || match.PinInv != im.match.PinInv {
					continue
				}
				cand := m.evalMatch(c, im.cutIdx, match)
				if cand.arrival <= r && (cand.area < best.area ||
					(cand.area == best.area && cand.arrival < best.arrival)) {
					best = cand
				}
			}
			m.eff[n][ph] = best
		}
	})
}

func lower(dst *float64, v float64) {
	if v < *dst {
		*dst = v
	}
}

// emit materializes the effective implementations as a netlist built
// into nlRecycle's storage (nil builds fresh). Alongside the netlist it
// returns, per emitted gate, the (node, phase) key whose implementation
// created it — the correspondence raw material the incremental path uses
// to relate the nets of successive mappings (see Remap). The
// (node, phase) -> net memo lives in the Scratch and is valid until its
// next use.
func (m *mapper) emit(nlRecycle *netlist.Netlist, gateKeys [][2]int32) (*netlist.Netlist, [][2]int32) {
	for ph := 0; ph < 2; ph++ {
		if cap(m.sc.memo[ph]) < m.g.NumNodes() {
			m.sc.memo[ph] = make([]netlist.NetID, m.g.NumNodes())
		}
		m.sc.memo[ph] = m.sc.memo[ph][:m.g.NumNodes()]
		for i := range m.sc.memo[ph] {
			m.sc.memo[ph][i] = -1
		}
	}
	// A method-based emitter rather than recursive closures: a closure
	// that captures itself escapes to the heap, and emit runs on the
	// steady-state delta path.
	e := emitter{m: m, nb: netlist.MakeBuilder(m.lib, m.g.NumPIs(), nlRecycle), gateKeys: gateKeys[:0]}
	for _, po := range m.g.POs() {
		e.nb.AddPO(e.need(po.Node(), phaseOf(po)))
	}
	return e.nb.Build(), e.gateKeys
}

// emitter carries the in-progress emission state through need's
// recursion.
type emitter struct {
	m        *mapper
	nb       netlist.Builder
	gateKeys [][2]int32
}

// addGate instantiates a cell and records its creator key.
func (e *emitter) addGate(key [2]int32, c *cell.Cell, ins ...netlist.NetID) netlist.NetID {
	net := e.nb.AddGate(c, ins...)
	e.gateKeys = append(e.gateKeys, key)
	return net
}

// need returns the net realizing (node, phase), emitting it on first use.
func (e *emitter) need(n int32, ph int) netlist.NetID {
	m := e.m
	if net := m.sc.memo[ph][n]; net >= 0 {
		return net
	}
	key := [2]int32{n, int32(ph)}
	var net netlist.NetID
	switch {
	case n == 0: // constant false node
		net = e.addGate(key, m.lib.Tie(ph == neg))
	case m.g.IsPI(n):
		if ph == pos {
			net = e.nb.PINet(int(n) - 1)
		} else {
			net = e.addGate(key, m.lib.Inverter(), e.nb.PINet(int(n)-1))
		}
	default:
		im := m.eff[n][ph]
		switch im.kind {
		case kindInv:
			net = e.addGate(key, m.lib.Inverter(), e.need(n, 1-ph))
		case kindWire:
			net = e.need(im.leaf, im.leafPhase)
		case kindTie:
			net = e.addGate(key, m.lib.Tie(im.tieVal))
		case kindGate:
			c := &m.cuts[n][im.cutIdx]
			var insArr [4]netlist.NetID
			ins := insArr[:im.match.Cell.NumInputs]
			for j := range ins {
				lph := pos
				if im.match.PinInv>>j&1 == 1 {
					lph = neg
				}
				ins[j] = e.need(c.Leaf(im.match.PinVar[j]), lph)
			}
			net = e.addGate(key, im.match.Cell, ins...)
		default:
			panic("techmap: emitting unimplemented node")
		}
	}
	m.sc.memo[ph][n] = net
	return net
}
