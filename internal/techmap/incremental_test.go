package techmap

import (
	"math/rand"
	"slices"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/netlist"
)

// sameNetlist reports whether two netlists are identical as stored
// structures: same cells (by pointer), same input nets, same POs.
func sameNetlist(a, b *netlist.Netlist) bool {
	if a.NumPIs != b.NumPIs || len(a.Gates) != len(b.Gates) || len(a.POs) != len(b.POs) {
		return false
	}
	for i := range a.Gates {
		ga, gb := &a.Gates[i], &b.Gates[i]
		if ga.Cell != gb.Cell || ga.Output != gb.Output || len(ga.Inputs) != len(gb.Inputs) {
			return false
		}
		for j := range ga.Inputs {
			if ga.Inputs[j] != gb.Inputs[j] {
				return false
			}
		}
	}
	for i := range a.POs {
		if a.POs[i] != b.POs[i] {
			return false
		}
	}
	return true
}

// mutateAIG derives a structurally different, functionally equivalent
// graph from g: it re-strashes g and rebuilds about one AND in twelve as
// (a·c)·a or (a·c)·c, which strashing cannot fold back, so the rebased
// delta has a real dirty suffix — the kind of cone-local change annealer
// moves produce.
func mutateAIG(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	nb := aig.NewBuilder(g.NumPIs())
	m := make([]aig.Lit, g.NumNodes())
	m[0] = aig.ConstFalse
	for i := 1; i <= g.NumPIs(); i++ {
		m[i] = nb.PI(i - 1)
	}
	g.TopoForEachAnd(func(n int32, f0, f1 aig.Lit) {
		a := m[f0.Node()].NotIf(f0.IsCompl())
		c := m[f1.Node()].NotIf(f1.IsCompl())
		switch rng.Intn(12) {
		case 0:
			m[n] = nb.And(nb.And(a, c), a)
		case 1:
			m[n] = nb.And(nb.And(a, c), c)
		default:
			m[n] = nb.And(a, c)
		}
	})
	for _, po := range g.POs() {
		nb.AddPO(m[po.Node()].NotIf(po.IsCompl()))
	}
	return nb.Build().Compact()
}

func TestRemapMatchesFullMap(t *testing.T) {
	lib := cell.Builtin()
	rng := rand.New(rand.NewSource(42))
	// mixed counts deltas with both a matched prefix, whose cuts Remap
	// translates, and a dirty suffix it re-enumerates.
	deltas, mixed := 0, 0
	for _, p := range []Params{
		DefaultParams,
		{Cut: cut.Params{K: 4, MaxCuts: 24}, NominalLoadFF: 6.0, AreaRecovery: true},
		{Cut: cut.Params{K: 3, MaxCuts: 6}, NominalLoadFF: 4.0, AreaRecovery: false},
	} {
		for trial := 0; trial < 12; trial++ {
			prev := randomAIG(rng, 4+rng.Intn(5), 30+rng.Intn(120), 1+rng.Intn(4))
			_, st, err := MapState(prev, lib, p)
			if err != nil {
				t.Fatalf("MapState: %v", err)
			}
			cur := prev
			curState := st
			for step := 0; step < 4; step++ {
				raw := mutateAIG(cur, rng)
				next, d := aig.Rebase(cur, raw)
				deltas++
				if d.NumMatched() > 0 && d.NumDirty() > 0 {
					mixed++
				}
				incNl, incState, nm, err := Remap(curState, next, d)
				if err != nil {
					t.Fatalf("Remap: %v", err)
				}
				fullNl, err := Map(next, lib, p)
				if err != nil {
					t.Fatalf("Map: %v", err)
				}
				if !sameNetlist(incNl, fullNl) {
					t.Fatalf("trial %d step %d (%v): incremental netlist differs from full map (dirty %v)",
						trial, step, p.Cut, d)
				}
				// The retained cut lists, translated prefix and
				// re-enumerated suffix, must equal a fresh enumeration.
				if !slices.EqualFunc(incState.cuts, cut.Enumerate(next, incState.p.Cut), slices.Equal[[]cut.Cut]) {
					t.Fatalf("trial %d step %d (%v): remapped cut lists differ from a fresh enumeration (dirty %v)",
						trial, step, p.Cut, d)
				}
				// Correspondence sanity: every mapped net pair must have
				// identical cells and corresponding inputs.
				for n, pn := range nm {
					if pn < 0 || n < incNl.NumPIs {
						continue
					}
					g := &incNl.Gates[n-incNl.NumPIs]
					pg := &curState.nl.Gates[int(pn)-curState.nl.NumPIs]
					if g.Cell != pg.Cell {
						t.Fatalf("correspondence maps net %d to %d with different cells", n, pn)
					}
					for j := range g.Inputs {
						if nm[g.Inputs[j]] != pg.Inputs[j] {
							t.Fatalf("correspondence at net %d has mismatched inputs", n)
						}
					}
				}
				cur, curState = next, incState
			}
		}
	}
	if mixed < deltas/2 {
		t.Fatalf("only %d of %d deltas have a matched prefix and a dirty suffix", mixed, deltas)
	}
}

func TestRemapIdentityDelta(t *testing.T) {
	lib := cell.Builtin()
	rng := rand.New(rand.NewSource(5))
	g := randomAIG(rng, 6, 150, 4)
	nl, st, err := MapState(g, lib, DefaultParams)
	if err != nil {
		t.Fatalf("MapState: %v", err)
	}
	next, d := aig.Rebase(g, g)
	if d.NumDirty() != 0 {
		t.Fatalf("self-delta dirty: %v", d)
	}
	incNl, _, nm, err := Remap(st, next, d)
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	if !sameNetlist(incNl, nl) {
		t.Fatal("identity remap produced a different netlist")
	}
	for n, pn := range nm {
		if netlist.NetID(n) != pn {
			t.Fatalf("identity remap: net %d corresponds to %d", n, pn)
		}
	}
}

func TestRemapRejectsBogusDelta(t *testing.T) {
	lib := cell.Builtin()
	rng := rand.New(rand.NewSource(6))
	g := randomAIG(rng, 5, 60, 2)
	h := randomAIG(rng, 5, 70, 2)
	_, st, err := MapState(g, lib, DefaultParams)
	if err != nil {
		t.Fatalf("MapState: %v", err)
	}
	// A delta computed against a different graph must be rejected.
	_, d := aig.Rebase(h, h)
	if _, _, _, err := Remap(st, h, d); err == nil {
		// Rebase(h, h) against state of g: node counts differ, Validate
		// must catch it.
		t.Fatal("Remap accepted a delta for the wrong base graph")
	}
}

// FuzzIncrementalRemap mutates a random cone of a random AIG and
// cross-checks the incrementally remapped netlist against a
// from-scratch techmap.Map: the two must be structurally identical and
// functionally equivalent to the mutated AIG.
func FuzzIncrementalRemap(f *testing.F) {
	f.Add(int64(1), uint8(0))
	f.Add(int64(7), uint8(1))
	f.Add(int64(99), uint8(2))
	f.Add(int64(12345), uint8(3))
	lib := cell.Builtin()
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		prev := randomAIG(rng, 3+rng.Intn(5), 10+rng.Intn(80), 1+rng.Intn(3))
		_, st, err := MapState(prev, lib, DefaultParams)
		if err != nil {
			t.Skip() // degenerate graph unmatchable; not the property under test
		}
		var raw *aig.AIG
		switch mode % 3 {
		case 0:
			raw = mutateAIG(prev, rng)
		case 1:
			// Pure re-strash (often a large matched prefix, zero or tiny cone).
			raw = prev.Compact()
		default:
			// Unrelated graph with the same PI count (everything dirty).
			raw = randomAIG(rng, prev.NumPIs(), 10+rng.Intn(80), prev.NumPOs())
		}
		next, d := aig.Rebase(prev, raw)
		if err := d.Validate(prev, next); err != nil {
			t.Fatalf("invalid delta: %v", err)
		}
		incNl, _, _, err := Remap(st, next, d)
		if err != nil {
			t.Fatalf("Remap: %v", err)
		}
		fullNl, err := Map(next, lib, DefaultParams)
		if err != nil {
			t.Fatalf("Map: %v", err)
		}
		if !sameNetlist(incNl, fullNl) {
			t.Fatalf("incremental netlist differs from full map (delta %v)", d)
		}
		// Functional cross-check against the AIG on random input vectors.
		piBits := make([]bool, next.NumPIs())
		for trial := 0; trial < 16; trial++ {
			for i := range piBits {
				piBits[i] = rng.Intn(2) == 1
			}
			got := incNl.Eval(piBits)
			ref := fullNl.Eval(piBits)
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("PO %d differs between incremental and full netlists", i)
				}
			}
		}
	})
}
