package netlist

import "fmt"

// InsertBuffers returns a copy of the netlist in which no net drives more
// than maxFanout sinks: excess sinks are moved behind buffer trees built
// from the library's buffer cell. High-fanout nets are the paper's second
// source of proxy miscorrelation (load-dependent delay); buffering is the
// standard physical-design remedy and gives the repository a
// netlist-level optimization pass to study it with.
func (nl *Netlist) InsertBuffers(maxFanout int) (*Netlist, error) {
	if maxFanout < 2 {
		return nil, fmt.Errorf("netlist: maxFanout must be at least 2")
	}
	buf := nl.Lib.Buffer()
	if buf == nil {
		return nil, fmt.Errorf("netlist: library %s has no buffer cell", nl.Lib.Name)
	}
	nb := MakeBuilder(nl.Lib, nl.NumPIs, nil)

	// Total taps per original net, known up front so the last slot of a
	// distribution net is spent on a buffer only when more taps follow.
	taps := make(map[NetID]int)
	for gi := range nl.Gates {
		for _, in := range nl.Gates[gi].Inputs {
			taps[in]++
		}
	}
	for _, po := range nl.POs {
		taps[po]++
	}

	// For each original net: the current distribution net, its free
	// slots, and how many taps are still owed. A buffer consumes one slot
	// of its parent and opens maxFanout fresh slots.
	type dist struct {
		net       NetID
		left      int
		remaining int
	}
	cur := make(map[NetID]*dist)
	newNet := make(map[NetID]NetID) // original driver net -> new net
	tap := func(orig NetID) NetID {
		d, ok := cur[orig]
		if !ok {
			d = &dist{net: newNet[orig], left: maxFanout, remaining: taps[orig]}
			cur[orig] = d
		}
		if d.left == 1 && d.remaining > 1 {
			d.net = nb.AddGate(buf, d.net)
			d.left = maxFanout
		}
		d.left--
		d.remaining--
		return d.net
	}
	for i := 0; i < nl.NumPIs; i++ {
		newNet[NetID(i)] = NetID(i)
	}
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		ins := make([]NetID, len(g.Inputs))
		for j, in := range g.Inputs {
			ins[j] = tap(in)
		}
		newNet[g.Output] = nb.AddGate(g.Cell, ins...)
	}
	for _, po := range nl.POs {
		nb.AddPO(tap(po))
	}
	return nb.Build(), nil
}

// MaxFanout returns the largest sink count over all nets (gate pins plus
// PO attachments).
func (nl *Netlist) MaxFanout() int {
	counts := make([]int, nl.numNets)
	for gi := range nl.Gates {
		for _, in := range nl.Gates[gi].Inputs {
			counts[in]++
		}
	}
	for _, po := range nl.POs {
		counts[po]++
	}
	m := 0
	for _, c := range counts {
		if c > m {
			m = c
		}
	}
	return m
}
