// Incremental technology mapping. A full Map pays cut enumeration and
// match selection for every node of the AIG; after an annealer move
// that touched a small logic cone, almost all of that work reproduces
// the previous answer. MapState retains the per-node mapping state and
// Remap rebuilds only the dirty suffix of a rebased graph (aig.Delta),
// translating the matched prefix's cuts and implementations instead of
// recomputing them.
//
// Exactness. Remap returns the same netlist Map would return on the
// same graph, bit for bit. This is not best-effort: the delta's matched
// prefix is index-monotone (aig.Rebase sorts matched nodes by their
// previous index), and every step of the mapping pipeline — cut
// merging, priority-cut filtering, match ranking — consults node
// indices only through order comparisons, so an order-preserving
// relabeling carries the previous state over unchanged. The dirty
// suffix is recomputed by literally the same code the full pass runs
// (cut.EnumerateSuffixArena, selectImpls from the suffix start), and the
// global passes that depend on all-nodes state (area recovery, emit)
// always run in full — they are linear and cheap next to enumeration
// and matching. The differential harness in internal/eval and the
// FuzzIncrementalRemap target enforce the equality continuously.
//
// Allocation model. Every entry point has an Into variant that builds
// the new State inside a dead one's storage (impls, cut-list table,
// gate keys, the flat gate-net index, and the netlist carcass are all
// reused), takes retained cut storage from a caller-owned cut.Arena,
// and draws working buffers from a caller-owned Scratch. A retained
// pipeline that recycles all three performs no steady-state heap
// allocations while re-mapping; the legacy entry points allocate fresh
// storage per call and behave as before.
package techmap

import (
	"fmt"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/netlist"
)

// State is the reusable result of mapping one AIG: the per-node
// priority cuts, the pre-area-recovery implementation choices, and the
// emitted netlist with its (node, phase) -> net bookkeeping. It is
// immutable after creation and safe to share across goroutines; Remap
// reads it and produces a State for the derived graph. The Into
// variants cannibalize a dead State's storage for the new one — the
// caller owns the guarantee that nothing references the dead State.
type State struct {
	g   *aig.AIG
	lib *cell.Library
	p   Params // normalized (defaults applied)

	cuts     [][]cut.Cut
	impls    [][2]impl  // selectImpls output, before area recovery
	gateKeys [][2]int32 // per gate, the (node, phase) that emitted it
	// gateNet is the creator-key index: gateNet[phase][node] is the net
	// emitted for that key, -1 where the key emitted no gate. A flat
	// array rather than a map: it is rebuilt on every mapping, and the
	// incremental path probes it per gate.
	gateNet [2][]netlist.NetID
	nl      *netlist.Netlist
}

// AIG returns the graph this state maps.
func (s *State) AIG() *aig.AIG { return s.g }

// Netlist returns the mapped netlist (identical to Map's result).
func (s *State) Netlist() *netlist.Netlist { return s.nl }

// growCutLists returns b resized to n entries, all nil.
func growCutLists(b [][]cut.Cut, n int) [][]cut.Cut {
	if cap(b) < n {
		return make([][]cut.Cut, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = nil
	}
	return b
}

// growNetIDs returns b resized to n entries, all -1.
func growNetIDs(b []netlist.NetID, n int) []netlist.NetID {
	if cap(b) < n {
		b = make([]netlist.NetID, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = -1
	}
	return b
}

// growInt32s returns b resized to n entries, all -1.
func growInt32s(b []int32, n int) []int32 {
	if cap(b) < n {
		b = make([]int32, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = -1
	}
	return b
}

// runMapper normalizes the parameters, enumerates cuts (unless the
// caller precomputed them), and selects implementations — the shared
// front half of Map, MapState, and (for the dirty suffix only) Remap.
// The impls buffer is recycled from dead and working buffers come from
// sc; either may be nil for fresh allocation. The returned mapper lives
// inside sc and is valid until sc's next mapping call.
func runMapper(g *aig.AIG, lib *cell.Library, p Params, cuts [][]cut.Cut, dead *State, sc *Scratch) (*mapper, error) {
	if p.Cut.K == 0 {
		p.Cut = DefaultParams.Cut
	}
	if p.NominalLoadFF == 0 {
		p.NominalLoadFF = DefaultParams.NominalLoadFF
	}
	if cuts == nil {
		cuts = cut.Enumerate(g, p.Cut)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	m := sc.mapper()
	m.g, m.lib, m.p, m.cuts, m.sc = g, lib, p, cuts, sc
	var implsBuf [][2]impl
	if dead != nil {
		implsBuf = dead.impls
	}
	m.impls = growImpls(implsBuf, g.NumNodes())
	m.eff = m.impls
	sc.direct = growImpls(sc.direct, g.NumNodes())
	return m, m.selectImpls(g.FirstAnd())
}

// MapState maps the AIG like Map and additionally returns the mapping
// state Remap needs to re-map derived graphs incrementally.
func MapState(g *aig.AIG, lib *cell.Library, p Params) (*netlist.Netlist, *State, error) {
	m, err := runMapper(g, lib, p, nil, nil, nil)
	if err != nil {
		return nil, nil, err
	}
	return finishMapping(m, nil)
}

// MapStateWithCuts is MapState over a precomputed cut set — one
// priority-cut list per node, exactly what cut.Enumerate(g, p.Cut)
// returns. It exists for callers that enumerate cuts for several
// mapping efforts in one shared pass (cut.EnumerateDual, used by
// signoff's dual-effort evaluation): the caller owns the guarantee that
// cuts matches p.Cut, and the mapping is bit-identical to
// MapState(g, lib, p) whenever it does. cuts is retained in the
// returned State and must not be mutated afterwards.
func MapStateWithCuts(g *aig.AIG, lib *cell.Library, p Params, cuts [][]cut.Cut) (*netlist.Netlist, *State, error) {
	return MapStateWithCutsInto(g, lib, p, cuts, nil, nil)
}

// MapStateWithCutsInto is MapStateWithCuts building the new State inside
// dead's storage and drawing working buffers from sc (either may be nil
// to allocate fresh). The result is bit-identical to MapStateWithCuts;
// the caller must guarantee nothing references dead anymore.
func MapStateWithCutsInto(g *aig.AIG, lib *cell.Library, p Params, cuts [][]cut.Cut, dead *State, sc *Scratch) (*netlist.Netlist, *State, error) {
	if len(cuts) != g.NumNodes() {
		return nil, nil, fmt.Errorf("techmap: cut set covers %d nodes, graph has %d", len(cuts), g.NumNodes())
	}
	m, err := runMapper(g, lib, p, cuts, dead, sc)
	if err != nil {
		return nil, nil, err
	}
	return finishMapping(m, dead)
}

// finishMapping runs the global passes (area recovery, emit) and
// packages the State, reusing dead's remaining storage (gate keys, the
// gate-net index, the netlist carcass, and the State struct itself).
// The pre-recovery impls are retained directly — area recovery operates
// on a scratch overlay and never mutates them, so no defensive snapshot
// is taken. Plain Map goes through emitMapped instead and skips this
// packaging entirely.
func finishMapping(m *mapper, dead *State) (*netlist.Netlist, *State, error) {
	s := dead
	if s == nil {
		s = &State{}
	}
	nl, gateKeys := emitMapped(m, s)
	gateNet := s.gateNet
	for ph := 0; ph < 2; ph++ {
		gateNet[ph] = growNetIDs(gateNet[ph], m.g.NumNodes())
	}
	for gi, k := range gateKeys {
		gateNet[k[1]][k[0]] = netlist.NetID(nl.NumPIs + gi)
	}
	*s = State{
		g: m.g, lib: m.lib, p: m.p,
		cuts: m.cuts, impls: m.impls,
		gateKeys: gateKeys, gateNet: gateNet, nl: nl,
	}
	return nl, s, nil
}

// emitMapped runs the global tail of mapping (area recovery, emission),
// recycling dead's netlist carcass and gate-key slice when non-nil.
func emitMapped(m *mapper, dead *State) (*netlist.Netlist, [][2]int32) {
	if m.p.AreaRecovery {
		m.recoverArea()
	}
	var nlRecycle *netlist.Netlist
	var gateKeys [][2]int32
	if dead != nil {
		nlRecycle, gateKeys = dead.nl, dead.gateKeys
	}
	return m.emit(nlRecycle, gateKeys)
}

// Remap maps next — a graph rebased against s's graph (aig.Rebase) —
// reusing s for the matched prefix and recomputing cuts and
// implementation choices only for the dirty suffix. It returns the new
// netlist (bit-identical to Map(next, ...) with s's parameters), the
// new State, and the net correspondence from the new netlist back to
// s's netlist for incremental STA seeding.
func Remap(s *State, next *aig.AIG, d *aig.Delta) (*netlist.Netlist, *State, netlist.NetMap, error) {
	return RemapInto(s, next, d, nil, nil, nil)
}

// RemapInto is Remap with caller-owned storage: the new State's retained
// cut storage is carved from a, the State itself is built inside dead's
// storage, and working buffers come from sc (each may be nil to allocate
// fresh). The arena is appended to, never Reset — one arena serves
// several RemapInto calls whose results live together (signoff's two
// efforts), and the caller resets it once when all of them are dead.
// The returned NetMap is backed by sc and valid until sc's next use.
// The result is bit-identical to Remap's; dead must be unreferenced and
// must not be s itself.
func RemapInto(s *State, next *aig.AIG, d *aig.Delta, a *cut.Arena, dead *State, sc *Scratch) (*netlist.Netlist, *State, netlist.NetMap, error) {
	if d == nil {
		return nil, nil, nil, fmt.Errorf("techmap: Remap: nil delta")
	}
	if err := d.Validate(s.g, next); err != nil {
		return nil, nil, nil, fmt.Errorf("techmap: Remap: %w", err)
	}
	if a == nil {
		a = new(cut.Arena)
	}
	if sc == nil {
		sc = &Scratch{}
	}
	first := next.FirstAnd()
	limit := first + int32(d.NumMatched())

	// prev node -> next node for the matched image (identity below
	// FirstAnd; the translation is monotone by the rebase invariant).
	sc.inv = growInt32s(sc.inv, s.g.NumNodes())
	inv := sc.inv
	for i := int32(0); i < first; i++ {
		inv[i] = i
	}
	for i, mn := range d.MatchedPrev {
		inv[mn] = first + int32(i)
	}

	m := sc.mapper()
	m.g, m.lib, m.p, m.sc = next, s.lib, s.p, sc
	var implsBuf [][2]impl
	var cutsBuf [][]cut.Cut
	if dead != nil {
		implsBuf, cutsBuf = dead.impls, dead.cuts
	}
	m.impls = growImpls(implsBuf, next.NumNodes())
	m.eff = m.impls
	m.cuts = growCutLists(cutsBuf, next.NumNodes())
	sc.direct = growImpls(sc.direct, next.NumNodes())
	cut.Seed(next, m.cuts, a)
	for n := first; n < limit; n++ {
		pn := d.MatchedPrev[n-first]
		m.cuts[n] = translateCuts(s.cuts[pn], inv, a)
		m.impls[n] = translateImpls(s.impls[pn], inv)
	}
	cut.EnumerateSuffixArena(next, s.p.Cut, m.cuts, limit, a, &sc.cuts)
	if err := m.selectImpls(limit); err != nil {
		return nil, nil, nil, err
	}
	nl, ns, err := finishMapping(m, dead)
	if err != nil {
		return nil, nil, nil, err
	}
	return nl, ns, correspond(s, ns, d, sc), nil
}

// translateCuts copies a matched node's cut list into next-graph
// indices, with list storage carved from the arena. inv is monotone over
// the matched image, so the sorted leaf order — and with it every table,
// filter decision, and match ranking downstream — is preserved exactly.
func translateCuts(cs []cut.Cut, inv []int32, a *cut.Arena) []cut.Cut {
	out := a.AllocCuts(len(cs))
	var leaves [4]int32
	for i := range cs {
		c := &cs[i]
		for j, l := range c.Leaves() {
			leaves[j] = inv[l]
		}
		out = append(out, cut.New(leaves[:c.Size()], c.Table))
	}
	return out
}

// translateImpls carries a matched node's phase implementations over;
// only the wire alias target is an index and needs remapping.
func translateImpls(ims [2]impl, inv []int32) [2]impl {
	for ph := range ims {
		if ims[ph].kind == kindWire {
			ims[ph].leaf = inv[ims[ph].leaf]
		}
	}
	return ims
}

// correspond builds the net correspondence between two consecutive
// mapping states into sc's NetMap buffer. A new net corresponds to a
// previous net when it is driven by a gate emitted for a matched
// (node, phase) key, with the identical cell and inputs that themselves
// correspond — verified in ascending net order, so the check is a
// single linear pass.
func correspond(prev, next *State, d *aig.Delta, sc *Scratch) netlist.NetMap {
	numPIs := next.nl.NumPIs
	if cap(sc.nm) < next.nl.NumNets() {
		sc.nm = make(netlist.NetMap, next.nl.NumNets())
	}
	sc.nm = sc.nm[:next.nl.NumNets()]
	nm := sc.nm
	for i := range nm {
		nm[i] = -1
	}
	for i := 0; i < numPIs; i++ {
		nm[i] = netlist.NetID(i)
	}
	first := next.g.FirstAnd()
	limit := first + int32(d.NumMatched())
	toPrev := func(n int32) int32 {
		switch {
		case n < first:
			return n
		case n < limit:
			return d.MatchedPrev[n-first]
		default:
			return -1
		}
	}
	for gi, k := range next.gateKeys {
		out := netlist.NetID(numPIs + gi)
		pn := toPrev(k[0])
		if pn < 0 {
			continue
		}
		pnet := prev.gateNet[k[1]][pn]
		if pnet < 0 {
			continue
		}
		g := &next.nl.Gates[gi]
		pg := &prev.nl.Gates[int(pnet)-prev.nl.NumPIs]
		if g.Cell != pg.Cell || len(g.Inputs) != len(pg.Inputs) {
			continue
		}
		same := true
		for j, in := range g.Inputs {
			if nm[in] != pg.Inputs[j] {
				same = false
				break
			}
		}
		if same {
			nm[out] = pnet
		}
	}
	return nm
}
