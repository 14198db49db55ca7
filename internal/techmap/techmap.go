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

// Params configures mapping. A zero NominalLoadFF selects the
// DefaultParams load; a zero AreaRecovery (false) switches area
// recovery off, unlike DefaultParams.
type Params struct {
	// NominalLoadFF is the output load (fF) assumed while ranking
	// matches and sizing gates; the real per-net load is only known
	// after emission, when STA measures it. Zero selects
	// DefaultParams.NominalLoadFF.
	NominalLoadFF float64
	// AreaRecovery enables the required-time sizing pass: off-critical
	// gates are downsized to the cheapest drive strength that still
	// meets the mapped netlist's own worst arrival. Structure never
	// changes, so area is monotonically non-increasing.
	AreaRecovery bool
}

// DefaultParams is a sensible delay-oriented configuration.
var DefaultParams = Params{
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

// impl is one realization of (node, phase). A gate's match points into
// the library's read-only match lists, which live as long as the
// Mapper's lib, so an impl stays small enough to copy freely.
type impl struct {
	match     *cell.Match // kindGate
	arrival   float64
	area      float64
	cutIdx    int32 // kindGate: the cut in the node's list
	leaf      int32 // kindWire: aliased node
	kind      implKind
	leafPhase uint8 // kindWire: aliased phase
	tieVal    bool  // kindTie
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

// Mapper maps AIGs onto a library. It owns every per-call buffer of
// the mapping pipeline (the implementation table, match-selection
// state, area-recovery requirements and the emit memo) and reuses them
// across calls, so a warm Mapper maps without allocating. The zero
// Mapper is ready to use; it serves one mapping at a time.
type Mapper struct {
	// The mapping in flight.
	g    *aig.AIG
	lib  *cell.Library
	p    Params
	cuts [][]cut.Cut

	// impls holds the chosen implementation of both phases of every
	// node: selectImpls fills it and area recovery resizes its gates in
	// place.
	impls  [][2]impl
	direct [][2]impl
	used   [][2]bool
	req    [][2]float64
	stack  []markItem
	memo   [2][]netlist.NetID
}

// growImpls returns b resized to n, contents unspecified.
func growImpls(b [][2]impl, n int) [][2]impl {
	if cap(b) < n {
		return make([][2]impl, n)
	}
	return b[:n]
}

// Map maps g onto lib over cuts, one priority-cut list per node as
// cut.Enumerator returns them, and builds the netlist into recycle's
// storage (nil builds a fresh one). It maps exactly the cut lists it is
// given, so the netlist is a deterministic function of (g, lib, p,
// cuts). The caller must guarantee that nothing references recycle any
// more.
func (m *Mapper) Map(g *aig.AIG, lib *cell.Library, p Params, cuts [][]cut.Cut, recycle *netlist.Netlist) (*netlist.Netlist, error) {
	if len(cuts) != g.NumNodes() {
		return nil, fmt.Errorf("techmap: cut set covers %d nodes, graph has %d", len(cuts), g.NumNodes())
	}
	if p.NominalLoadFF == 0 {
		p.NominalLoadFF = DefaultParams.NominalLoadFF
	}
	m.g, m.lib, m.p, m.cuts = g, lib, p, cuts
	m.impls = growImpls(m.impls, g.NumNodes())
	m.direct = growImpls(m.direct, g.NumNodes())
	if err := m.selectImpls(); err != nil {
		return nil, err
	}
	if p.AreaRecovery {
		m.recoverArea()
	}
	return m.emit(recycle), nil
}

// invDelay returns the nominal delay of the shared inverter.
func (m *Mapper) invDelay() float64 {
	return m.lib.Inverter().DelayPS(m.p.NominalLoadFF)
}

// arrivalOf returns the arrival time of (node, phase) under the chosen
// implementations, deriving the complement phase through an inverter
// when necessary.
func (m *Mapper) arrivalOf(n int32, ph int) float64 {
	if !m.g.IsAnd(n) {
		// PIs and constants arrive at t=0; a PI's complement costs an
		// inverter, tie cells are free in either phase.
		if m.g.IsPI(n) && ph == neg {
			return m.invDelay()
		}
		return 0
	}
	return m.impls[n][ph].arrival
}

// selectImpls chooses the best implementation for both phases of every
// AND node, in topological order.
func (m *Mapper) selectImpls() error {
	for i := int(m.g.FirstAnd()); i < m.g.NumNodes(); i++ {
		if err := m.selectNode(int32(i)); err != nil {
			return err
		}
	}
	return nil
}

// selectNode chooses the best implementation for both phases of the AND
// node n, writing m.direct[n] and m.impls[n] and reading only the
// impls of nodes inside n's cuts' leaf sets (all strictly below n).
// Candidates are scored one at a time into the running best, per phase
// and per cut in list order, so better's first-wins tie-breaking
// always sees the same sequence.
func (m *Mapper) selectNode(n int32) error {
	for ph := pos; ph <= neg; ph++ {
		best := &m.direct[n][ph]
		*best = impl{kind: kindNone, arrival: math.Inf(1)}
		for ci := range m.cuts[n] {
			c := &m.cuts[n][ci]
			if c.IsTrivial(n) || c.Size() == 0 {
				continue
			}
			tbl := c.Table
			if ph == neg {
				tbl = ^tbl
			}
			m.scoreCut(best, c, ci, tbl)
		}
	}
	// Relax with the inverter alternative: phase ph via INV over the
	// direct impl of the opposite phase.
	for ph := pos; ph <= neg; ph++ {
		best := m.direct[n][ph]
		if other := &m.direct[n][1-ph]; other.kind != kindNone {
			cand := impl{
				kind:    kindInv,
				arrival: other.arrival + m.invDelay(),
				area:    m.lib.Inverter().AreaUM2,
			}
			if better(&cand, &best) {
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

// scoreCut offers best every realization of the table tbl over cut c,
// in order: a tie cell for a constant, wires for projections, then the
// library's matches in Matches order.
func (m *Mapper) scoreCut(best *impl, c *cut.Cut, ci int, tbl uint16) {
	if tbl == 0 || tbl == 0xFFFF {
		v := tbl != 0
		offer(best, impl{kind: kindTie, tieVal: v, area: m.lib.Tie(v).AreaUM2})
		return
	}
	for j, leaf := range c.Leaves() {
		if tbl == projections[j] {
			offer(best, impl{kind: kindWire, leaf: leaf, leafPhase: pos, arrival: m.arrivalOf(leaf, pos)})
		}
		if tbl == ^projections[j] {
			offer(best, impl{kind: kindWire, leaf: leaf, leafPhase: neg, arrival: m.arrivalOf(leaf, neg)})
		}
	}
	ms := m.lib.Matches(tbl, c.Size())
	for i := range ms {
		offer(best, m.evalMatch(c, ci, &ms[i]))
	}
}

// offer replaces best by cand when cand is better.
func offer(best *impl, cand impl) {
	if better(&cand, best) {
		*best = cand
	}
}

// evalMatch scores a cut/cell pairing under the nominal-load delay model.
func (m *Mapper) evalMatch(c *cut.Cut, cutIdx int, match *cell.Match) impl {
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
		cutIdx:  int32(cutIdx),
		match:   match,
		arrival: arr + d,
		area:    match.Cell.AreaUM2,
	}
}

// better orders implementations by (arrival, area).
func better(a, b *impl) bool {
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
func (m *Mapper) markUsed() {
	m.used = m.used[:0]
	if cap(m.used) < m.g.NumNodes() {
		m.used = make([][2]bool, m.g.NumNodes())
	}
	m.used = m.used[:m.g.NumNodes()]
	for i := range m.used {
		m.used[i] = [2]bool{}
	}
	used := m.used
	stack := m.stack[:0]
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
		im := &m.impls[it.n][it.ph]
		switch im.kind {
		case kindInv:
			push(it.n, 1-it.ph)
		case kindWire:
			push(im.leaf, int(im.leafPhase))
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
	m.stack = stack
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
func (m *Mapper) recoverArea() {
	m.markUsed()
	used := m.used
	if cap(m.req) < m.g.NumNodes() {
		m.req = make([][2]float64, m.g.NumNodes())
	}
	m.req = m.req[:m.g.NumNodes()]
	req := m.req
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
			im := &m.impls[n][ph]
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
			im := &m.impls[n][ph]
			if im.kind != kindGate {
				continue
			}
			r := req[n][ph]
			c := &m.cuts[n][im.cutIdx]
			tbl := c.Table
			if ph == neg {
				tbl = ^tbl
			}
			ci := int(im.cutIdx)
			best := m.evalMatch(c, ci, im.match) // refresh arrival
			ms := m.lib.Matches(tbl, c.Size())
			for i := range ms {
				match := &ms[i]
				if match.PinVar != im.match.PinVar || match.PinInv != im.match.PinInv {
					continue
				}
				cand := m.evalMatch(c, ci, match)
				if cand.arrival <= r && (cand.area < best.area ||
					(cand.area == best.area && cand.arrival < best.arrival)) {
					best = cand
				}
			}
			m.impls[n][ph] = best
		}
	})
}

func lower(dst *float64, v float64) {
	if v < *dst {
		*dst = v
	}
}

// emit materializes the chosen implementations as a netlist built into
// nlRecycle's storage (nil builds fresh). The (node, phase) -> net memo
// lives in the Mapper and is valid until its next use.
func (m *Mapper) emit(nlRecycle *netlist.Netlist) *netlist.Netlist {
	for ph := 0; ph < 2; ph++ {
		if cap(m.memo[ph]) < m.g.NumNodes() {
			m.memo[ph] = make([]netlist.NetID, m.g.NumNodes())
		}
		m.memo[ph] = m.memo[ph][:m.g.NumNodes()]
		for i := range m.memo[ph] {
			m.memo[ph][i] = -1
		}
	}
	// A method-based emitter rather than recursive closures: a closure
	// that captures itself escapes to the heap, and emit runs on every
	// pooled evaluation.
	e := emitter{m: m, nb: netlist.MakeBuilder(m.lib, m.g.NumPIs(), nlRecycle)}
	for _, po := range m.g.POs() {
		e.nb.AddPO(e.need(po.Node(), phaseOf(po)))
	}
	return e.nb.Build()
}

// emitter carries the in-progress emission state through need's
// recursion.
type emitter struct {
	m  *Mapper
	nb netlist.Builder
}

// need returns the net realizing (node, phase), emitting it on first use.
func (e *emitter) need(n int32, ph int) netlist.NetID {
	m := e.m
	if net := m.memo[ph][n]; net >= 0 {
		return net
	}
	var net netlist.NetID
	switch {
	case n == 0: // constant false node
		net = e.nb.AddGate(m.lib.Tie(ph == neg))
	case m.g.IsPI(n):
		if ph == pos {
			net = e.nb.PINet(int(n) - 1)
		} else {
			net = e.nb.AddGate(m.lib.Inverter(), e.nb.PINet(int(n)-1))
		}
	default:
		im := &m.impls[n][ph]
		switch im.kind {
		case kindInv:
			net = e.nb.AddGate(m.lib.Inverter(), e.need(n, 1-ph))
		case kindWire:
			net = e.need(im.leaf, int(im.leafPhase))
		case kindTie:
			net = e.nb.AddGate(m.lib.Tie(im.tieVal))
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
			net = e.nb.AddGate(im.match.Cell, ins...)
		default:
			panic("techmap: emitting unimplemented node")
		}
	}
	m.memo[ph][n] = net
	return net
}
