// Package cell models a standard-cell library for technology mapping and
// static timing analysis.
//
// The paper maps AIGs onto the SkyWater 130 nm PDK through ABC. This
// repository substitutes a built-in 130nm-class library with the same
// structure: combinational cells up to four inputs, each with an area, a
// per-pin input capacitance, an intrinsic delay, and a drive resistance
// (delay per femtofarad of load). The linear delay model
//
//	delay = intrinsic + drive · load
//
// captures exactly the miscorrelation mechanisms the paper analyzes: cell
// merging shortens logic paths relative to AIG depth, while fanout-driven
// load increases stage delay.
//
// A Library precomputes every way its cells realize a padded 4-input
// function under pin permutation and complementation. The index is
// dense, one entry per function, so Matches, which the mapper calls for
// every cut and phase, is two slice indexes with no hashing; its lists
// belong to the library and are read-only.
package cell

import (
	"fmt"
	"math/bits"
	"sort"

	"aigtimer/internal/truth"
)

// Cell is a combinational standard cell.
type Cell struct {
	Name         string
	NumInputs    int     // 0 (tie cells) to 4
	Function     uint16  // truth table over pins 0..NumInputs-1, padded to 4 vars
	AreaUM2      float64 // layout area, um^2
	InputCapFF   float64 // input capacitance per pin, fF
	IntrinsicPS  float64 // parasitic/intrinsic delay, ps
	DrivePSPerFF float64 // drive resistance, ps per fF of output load

	// NLDM holds the characterized lookup tables used by signoff STA;
	// populated by Library finalization (see Characterize).
	NLDM *Timing
}

// DelayPS returns the pin-to-output delay under the given load.
func (c *Cell) DelayPS(loadFF float64) float64 {
	return c.IntrinsicPS + c.DrivePSPerFF*loadFF
}

// IsInverter reports whether the cell computes NOT of its single input.
func (c *Cell) IsInverter() bool {
	return c.NumInputs == 1 && c.Function == truth.PadTo4(0x1, 1)
}

// IsBuffer reports whether the cell computes identity of its single input.
func (c *Cell) IsBuffer() bool {
	return c.NumInputs == 1 && c.Function == truth.PadTo4(0x2, 1)
}

// Match describes how a cut function is realized by a cell: pin j of the
// cell connects to cut leaf PinVar[j], inverted when bit j of PinInv is
// set. Pin inversions are satisfied at mapping time by the complement
// phase of the leaf signal (a shared inverter when no gate produces that
// phase directly).
type Match struct {
	Cell   *Cell
	PinVar [4]int
	PinInv uint16
}

// Library is a set of cells plus interconnect parameters.
type Library struct {
	Name         string
	Cells        []*Cell
	WireCapFF    float64 // added capacitance per fanout branch, fF
	OutputLoadFF float64 // default load on primary outputs, fF

	byName map[string]*Cell
	// matchIdx maps every padded function to its entry in matchSets;
	// entry 0 is the empty set of the functions no cell realizes.
	// matchSets[i][nl] lists an entry's realizations within nl leaves.
	matchIdx  []int32
	matchSets [][5][]Match
	inv       *Cell // smallest inverter
	buf       *Cell // smallest buffer
	tie0      *Cell
	tie1      *Cell
}

// CellByName returns the named cell, or nil.
func (l *Library) CellByName(name string) *Cell { return l.byName[name] }

// Inverter returns the library's smallest inverter.
func (l *Library) Inverter() *Cell { return l.inv }

// Buffer returns the library's smallest buffer.
func (l *Library) Buffer() *Cell { return l.buf }

// Tie returns the constant-driving cell for the given value.
func (l *Library) Tie(v bool) *Cell {
	if v {
		return l.tie1
	}
	return l.tie0
}

// finalize validates the library and builds the lookup structures.
func (l *Library) finalize() error {
	l.byName = make(map[string]*Cell, len(l.Cells))
	for _, c := range l.Cells {
		if c.NumInputs < 0 || c.NumInputs > 4 {
			return fmt.Errorf("cell: %s: %d inputs unsupported", c.Name, c.NumInputs)
		}
		if _, dup := l.byName[c.Name]; dup {
			return fmt.Errorf("cell: duplicate cell %s", c.Name)
		}
		c.Function = truth.PadTo4(c.Function, c.NumInputs)
		c.Characterize()
		l.byName[c.Name] = c
		switch {
		case c.IsInverter():
			if l.inv == nil || c.AreaUM2 < l.inv.AreaUM2 {
				l.inv = c
			}
		case c.IsBuffer():
			if l.buf == nil || c.AreaUM2 < l.buf.AreaUM2 {
				l.buf = c
			}
		case c.NumInputs == 0:
			if c.Function == 0 {
				l.tie0 = c
			} else {
				l.tie1 = c
			}
		}
	}
	if l.inv == nil {
		return fmt.Errorf("cell: library %s has no inverter", l.Name)
	}
	if l.tie0 == nil || l.tie1 == nil {
		return fmt.Errorf("cell: library %s is missing tie cells", l.Name)
	}
	return l.buildMatches()
}

// maxMatches bounds the realizations one library may hold, summed over
// its cells: 44 times the builtin library's 744, room for 85 cells with
// all 384 realizations a 4-input cell can have. Realizations outgrow a
// library's text about a thousandfold, and libraries arrive from other
// processes, so without a bound a few MB of text would cost gigabytes.
const maxMatches = 1 << 15

// buildMatches precomputes, for every cell, every function reachable by
// permuting its pins across up to four cut-leaf positions and optionally
// complementing pins. Pin complementations are enumerated in increasing
// count, so when a function is realizable several ways by the same cell the
// wiring with the fewest inversions is kept. The mapper charges an inverter
// (or reuses the complement-phase signal) for every set PinInv bit.
//
// The result is a dense index over all 65,536 padded functions, so
// Matches is two slice indexes on the mapper's hot path. A library with
// more than maxMatches realizations is refused at the first cell that
// passes the cap.
func (l *Library) buildMatches() error {
	l.matchIdx = make([]int32, 1<<16)
	var found [][]Match // found[i-1]: the realizations of index entry i
	total := 0
	for _, c := range l.Cells {
		k := c.NumInputs
		if k == 0 || c.IsBuffer() || c.IsInverter() {
			continue // handled specially by the mapper
		}
		seen := make(map[uint16]bool)
		// Visit inversion masks in increasing popcount.
		var invOrder []uint16
		for bc := 0; bc <= k; bc++ {
			for inv := 0; inv < 1<<k; inv++ {
				if bits.OnesCount(uint(inv)) == bc {
					invOrder = append(invOrder, uint16(inv))
				}
			}
		}
		for _, inv := range invOrder {
			forEachInjective(k, func(assign []int) {
				var pinVar [4]int
				copy(pinVar[:], assign)
				g := truth.TransformPins(c.Function, 4, pad4(assign), inv)
				if seen[g] {
					return // same function via a different wiring; keep first
				}
				seen[g] = true
				total++
				i := l.matchIdx[g]
				if i == 0 {
					found = append(found, nil)
					i = int32(len(found))
					l.matchIdx[g] = i
				}
				found[i-1] = append(found[i-1], Match{Cell: c, PinVar: pinVar, PinInv: inv})
			})
		}
		if total > maxMatches {
			return fmt.Errorf("cell: library %s realizes more than %d cell matches", l.Name, maxMatches)
		}
	}
	l.matchSets = make([][5][]Match, len(found)+1)
	for x, ms := range found {
		// Keep matches sorted by area so greedy consumers see cheap
		// cells first.
		sort.Slice(ms, func(i, j int) bool { return ms[i].Cell.AreaUM2 < ms[j].Cell.AreaUM2 })
		// Pre-filter per leaf count. A match fits within nl leaves iff
		// every pin reads a variable below nl; filtering preserves the
		// area order.
		set := &l.matchSets[x+1]
		for nl := range set {
			for _, m := range ms {
				ok := true
				for j := 0; j < m.Cell.NumInputs; j++ {
					if m.PinVar[j] >= nl {
						ok = false
						break
					}
				}
				if ok {
					set[nl] = append(set[nl], m)
				}
			}
		}
	}
	return nil
}

// pad4 extends a pin assignment to 4 entries; unused pins of a padded
// table may read any variable, so position 0 is safe.
func pad4(assign []int) []int {
	out := make([]int, 4)
	copy(out, assign)
	return out
}

// forEachInjective enumerates injective maps from k pins to the 4 leaf
// positions.
func forEachInjective(k int, f func(assign []int)) {
	assign := make([]int, k)
	used := [4]bool{}
	var rec func(j int)
	rec = func(j int) {
		if j == k {
			f(assign)
			return
		}
		for p := 0; p < 4; p++ {
			if used[p] {
				continue
			}
			used[p] = true
			assign[j] = p
			rec(j + 1)
			used[p] = false
		}
	}
	rec(0)
}

// Matches returns the realizations of the given padded cut function whose
// pin assignments fall within numLeaves positions, sorted by area. The
// caller typically queries both f and ^f and accounts for an output
// inverter on the latter. The returned slice belongs to the library and
// must not be mutated; pointers into it stay valid as long as the
// library does.
func (l *Library) Matches(f uint16, numLeaves int) []Match {
	if numLeaves < 0 {
		return nil
	}
	return l.matchSets[l.matchIdx[f]][min(numLeaves, 4)]
}

// NumMatchableFunctions returns the number of distinct padded functions the
// library can realize directly (without output inversion).
func (l *Library) NumMatchableFunctions() int { return len(l.matchSets) - 1 }
