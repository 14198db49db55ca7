package sta

import (
	"fmt"
	"math"
	"strings"

	"aigtimer/internal/netlist"
)

// Result holds the timing analysis of one netlist.
type Result struct {
	// Netlist is the analyzed design; all per-net slices below are
	// indexed by its NetIDs.
	Netlist *netlist.Netlist

	// ArrivalPS is the latest signal arrival time at every net, in
	// picoseconds; primary-input nets arrive at 0.
	ArrivalPS []float64
	// GateDelay is the pin-to-output delay of every gate under the load
	// of its output net, indexed like Netlist.Gates.
	GateDelay []float64

	// MaxDelayPS is the maximum arrival over all POs (the design delay).
	MaxDelayPS float64
	// CriticalPO is the index (into Netlist.POs) of the PO realizing
	// MaxDelayPS, or -1 for a netlist without gates or POs.
	CriticalPO int
	// AreaUM2 is a convenience copy of the netlist cell area.
	AreaUM2 float64
}

// Analyze runs STA on the netlist.
func Analyze(nl *netlist.Netlist) *Result {
	numNets := nl.NumNets()
	r := &Result{
		Netlist:    nl,
		ArrivalPS:  make([]float64, numNets),
		GateDelay:  make([]float64, len(nl.Gates)),
		AreaUM2:    nl.AreaUM2(),
		CriticalPO: -1,
	}
	// Forward pass: gates are stored in topological order.
	for gi := range nl.Gates {
		g := &nl.Gates[gi]
		d := g.Cell.DelayPS(nl.LoadFF(g.Output))
		r.GateDelay[gi] = d
		arr := 0.0
		for _, in := range g.Inputs {
			if a := r.ArrivalPS[in]; a > arr {
				arr = a
			}
		}
		r.ArrivalPS[g.Output] = arr + d
	}
	for i, po := range nl.POs {
		if a := r.ArrivalPS[po]; r.CriticalPO < 0 || a > r.MaxDelayPS {
			r.MaxDelayPS = a
			r.CriticalPO = i
		}
	}
	return r
}

// MaxDelayNS returns the maximum delay in nanoseconds (the unit the paper
// reports in Table I).
func (r *Result) MaxDelayNS() float64 { return r.MaxDelayPS / 1000 }

// CriticalPath returns the gate indices along one maximum-delay path, from
// the input side to the critical PO's driver.
func (r *Result) CriticalPath() []int {
	nl := r.Netlist
	if r.CriticalPO < 0 {
		return nil
	}
	var rev []int
	net := nl.POs[r.CriticalPO]
	for {
		gi := nl.Driver(net)
		if gi < 0 {
			break
		}
		rev = append(rev, gi)
		g := &nl.Gates[gi]
		// Step to the latest-arriving input.
		var next netlist.NetID = -1
		worst := math.Inf(-1)
		for _, in := range g.Inputs {
			if a := r.ArrivalPS[in]; a > worst {
				worst = a
				next = in
			}
		}
		if next < 0 {
			break // tie cell
		}
		net = next
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// Report renders a human-readable timing summary.
func (r *Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "max delay: %.1f ps (%.3f ns), area: %.2f um2\n",
		r.MaxDelayPS, r.MaxDelayNS(), r.AreaUM2)
	path := r.CriticalPath()
	fmt.Fprintf(&sb, "critical path (%d stages):\n", len(path))
	for _, gi := range path {
		g := &r.Netlist.Gates[gi]
		fmt.Fprintf(&sb, "  %-10s out=n%-5d delay=%6.1f ps  arrival=%8.1f ps\n",
			g.Cell.Name, g.Output, r.GateDelay[gi], r.ArrivalPS[g.Output])
	}
	return sb.String()
}
