// Package netlist represents mapped gate-level netlists: the output of
// technology mapping and the input to static timing analysis.
//
// Nets are integers. Nets 0..NumPIs-1 are driven by the primary inputs;
// every other net is driven by exactly one gate.
package netlist

import (
	"fmt"
	"sort"

	"aigtimer/internal/cell"
)

// NetID identifies a net.
type NetID int32

// Gate is one standard-cell instance.
type Gate struct {
	Cell   *cell.Cell
	Inputs []NetID // one entry per cell pin
	Output NetID
}

// inBlock sizes the input-pin arena blocks backing Gate.Inputs.
const inBlock = 2048

// Netlist is a combinational mapped design.
type Netlist struct {
	Lib    *cell.Library
	NumPIs int
	Gates  []Gate  // in topological order (inputs precede outputs)
	POs    []NetID // primary output nets

	numNets int

	// inBlocks is the arena backing every Gate.Inputs slice; block-based
	// so growth never moves pins out from under earlier gates. Recycled
	// wholesale by MakeBuilder.
	inBlocks [][]NetID
	inActive int

	// Fanout bookkeeping, lazily built: foFlat[foOff[n]:foOff[n+1]] are
	// the indices of gates reading net n. Flat layout so a rebuild costs
	// at most three slice growths instead of one per net.
	foBuilt bool
	foOff   []int32
	foFlat  []int32
	poLoads []int32 // net -> number of POs attached
}

// Builder incrementally constructs a netlist.
type Builder struct {
	n *Netlist
}

// MakeBuilder returns a netlist builder over the given library, by
// value so hot paths keep it on the stack. A nil recycle allocates a
// fresh netlist. Otherwise the builder recycles that dead netlist's
// storage: the gate and PO slices, the input-pin arena, and the fanout
// bookkeeping are reused in place, so building into a warm carcass
// performs no steady-state allocations. The caller must guarantee
// nothing references recycle anymore — Build hands back the same
// *Netlist with entirely new contents.
func MakeBuilder(lib *cell.Library, numPIs int, recycle *Netlist) Builder {
	n := recycle
	if n == nil {
		n = &Netlist{}
	}
	for i := range n.inBlocks {
		n.inBlocks[i] = n.inBlocks[i][:0]
	}
	*n = Netlist{
		Lib: lib, NumPIs: numPIs, numNets: numPIs,
		Gates:    n.Gates[:0],
		POs:      n.POs[:0],
		inBlocks: n.inBlocks,
		foOff:    n.foOff[:0],
		foFlat:   n.foFlat[:0],
		poLoads:  n.poLoads[:0],
	}
	return Builder{n: n}
}

// PINet returns the net driven by primary input i.
func (b *Builder) PINet(i int) NetID {
	if i < 0 || i >= b.n.NumPIs {
		panic(fmt.Sprintf("netlist: PI %d out of range", i))
	}
	return NetID(i)
}

// allocInputs carves a pin slice of length n from the input arena.
func (nl *Netlist) allocInputs(n int) []NetID {
	for {
		if nl.inActive >= len(nl.inBlocks) {
			sz := inBlock
			if n > sz {
				sz = n
			}
			nl.inBlocks = append(nl.inBlocks, make([]NetID, 0, sz))
		}
		blk := nl.inBlocks[nl.inActive]
		if cap(blk)-len(blk) >= n {
			s := blk[len(blk) : len(blk)+n : len(blk)+n]
			nl.inBlocks[nl.inActive] = blk[: len(blk)+n : cap(blk)]
			return s
		}
		nl.inActive++
	}
}

// AddGate instantiates a cell reading the given nets and returns its
// output net. The number of inputs must equal the cell's pin count, and
// every input net must already exist.
func (b *Builder) AddGate(c *cell.Cell, inputs ...NetID) NetID {
	if len(inputs) != c.NumInputs {
		panic(fmt.Sprintf("netlist: cell %s wants %d inputs, got %d", c.Name, c.NumInputs, len(inputs)))
	}
	for _, in := range inputs {
		if int(in) >= b.n.numNets || in < 0 {
			panic(fmt.Sprintf("netlist: input net %d does not exist", in))
		}
	}
	out := NetID(b.n.numNets)
	b.n.numNets++
	ins := b.n.allocInputs(len(inputs))
	copy(ins, inputs)
	b.n.Gates = append(b.n.Gates, Gate{Cell: c, Inputs: ins, Output: out})
	return out
}

// AddPO marks a net as a primary output.
func (b *Builder) AddPO(n NetID) {
	if int(n) >= b.n.numNets || n < 0 {
		panic(fmt.Sprintf("netlist: PO net %d does not exist", n))
	}
	b.n.POs = append(b.n.POs, n)
}

// Build finalizes and returns the netlist. The builder must not be used
// afterwards.
func (b *Builder) Build() *Netlist {
	n := b.n
	b.n = nil
	return n
}

// NumNets returns the total net count.
func (nl *Netlist) NumNets() int { return nl.numNets }

// NumGates returns the number of cell instances.
func (nl *Netlist) NumGates() int { return len(nl.Gates) }

// AreaUM2 returns the summed cell area.
func (nl *Netlist) AreaUM2() float64 {
	a := 0.0
	for i := range nl.Gates {
		a += nl.Gates[i].Cell.AreaUM2
	}
	return a
}

// Driver returns the index of the gate driving net n, or -1 for PI nets.
func (nl *Netlist) Driver(n NetID) int {
	if int(n) < nl.NumPIs {
		return -1
	}
	// Gates are appended in net order: gate i drives net NumPIs+i.
	return int(n) - nl.NumPIs
}

// buildFanouts computes reader lists and PO attachment counts with a
// counting sort into the flat layout.
func (nl *Netlist) buildFanouts() {
	if nl.foBuilt {
		return
	}
	if cap(nl.foOff) < nl.numNets+1 {
		nl.foOff = make([]int32, nl.numNets+1)
	}
	nl.foOff = nl.foOff[:nl.numNets+1]
	for i := range nl.foOff {
		nl.foOff[i] = 0
	}
	total := 0
	for gi := range nl.Gates {
		for _, in := range nl.Gates[gi].Inputs {
			nl.foOff[in+1]++
			total++
		}
	}
	for i := 1; i <= nl.numNets; i++ {
		nl.foOff[i] += nl.foOff[i-1]
	}
	if cap(nl.foFlat) < total {
		nl.foFlat = make([]int32, total)
	}
	nl.foFlat = nl.foFlat[:total]
	// Fill using foOff as a moving cursor, then restore it by shifting.
	for gi := range nl.Gates {
		for _, in := range nl.Gates[gi].Inputs {
			nl.foFlat[nl.foOff[in]] = int32(gi)
			nl.foOff[in]++
		}
	}
	for i := nl.numNets; i > 0; i-- {
		nl.foOff[i] = nl.foOff[i-1]
	}
	nl.foOff[0] = 0
	if cap(nl.poLoads) < nl.numNets {
		nl.poLoads = make([]int32, nl.numNets)
	}
	nl.poLoads = nl.poLoads[:nl.numNets]
	for i := range nl.poLoads {
		nl.poLoads[i] = 0
	}
	for _, po := range nl.POs {
		nl.poLoads[po]++
	}
	nl.foBuilt = true
}

// Fanouts returns the indices of gates reading net n.
func (nl *Netlist) Fanouts(n NetID) []int32 {
	nl.buildFanouts()
	return nl.foFlat[nl.foOff[n]:nl.foOff[n+1]]
}

// LoadFF returns the capacitive load on net n: the input capacitance of
// every reading pin, wire capacitance per fanout branch, and the default
// output load for each PO attachment.
func (nl *Netlist) LoadFF(n NetID) float64 {
	nl.buildFanouts()
	load := 0.0
	branches := 0
	for _, gi := range nl.Fanouts(n) {
		g := &nl.Gates[gi]
		for _, in := range g.Inputs {
			if in == n {
				load += g.Cell.InputCapFF
				branches++
			}
		}
	}
	load += float64(branches+int(nl.poLoads[n])) * nl.Lib.WireCapFF
	load += float64(nl.poLoads[n]) * nl.Lib.OutputLoadFF
	return load
}

// CellHistogram returns cell-name usage counts, for reports.
func (nl *Netlist) CellHistogram() []struct {
	Name  string
	Count int
} {
	m := map[string]int{}
	for i := range nl.Gates {
		m[nl.Gates[i].Cell.Name]++
	}
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	out := make([]struct {
		Name  string
		Count int
	}, len(names))
	for i, name := range names {
		out[i].Name = name
		out[i].Count = m[name]
	}
	return out
}

// Stats summarizes the netlist.
func (nl *Netlist) Stats() string {
	return fmt.Sprintf("gates=%d nets=%d area=%.2fum2", nl.NumGates(), nl.NumNets(), nl.AreaUM2())
}
