package signoff

import (
	"math/rand"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/netlist"
)

// mutate rebuilds g with cone-local redundant restructurings, the kind
// of change annealer moves produce: about one AND in six becomes
// (a·c)·a or (a·c)·c, the same function through an extra node that
// structural hashing keeps, so the rebased graph really differs.
func mutate(g *aig.AIG, rng *rand.Rand) *aig.AIG {
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

// mustEqualNetlists compares two netlists gate for gate (cells, input
// nets, output nets, POs) — structural bit-identity, no tolerance.
func mustEqualNetlists(t *testing.T, ctx string, na, nb *netlist.Netlist) {
	t.Helper()
	if na.NumPIs != nb.NumPIs || len(na.Gates) != len(nb.Gates) || len(na.POs) != len(nb.POs) {
		t.Fatalf("%s: netlist shape differs: PIs %d/%d gates %d/%d POs %d/%d",
			ctx, na.NumPIs, nb.NumPIs, len(na.Gates), len(nb.Gates), len(na.POs), len(nb.POs))
	}
	for gi := range na.Gates {
		ga, gb := &na.Gates[gi], &nb.Gates[gi]
		if ga.Cell != gb.Cell || ga.Output != gb.Output || len(ga.Inputs) != len(gb.Inputs) {
			t.Fatalf("%s: gate %d differs", ctx, gi)
		}
		for j := range ga.Inputs {
			if ga.Inputs[j] != gb.Inputs[j] {
				t.Fatalf("%s: gate %d input %d differs", ctx, gi, j)
			}
		}
	}
	for i := range na.POs {
		if na.POs[i] != nb.POs[i] {
			t.Fatalf("%s: PO %d differs", ctx, i)
		}
	}
}

// mustEqualResults asserts two evaluation results are bit-identical:
// metrics, governing corner, and the chosen netlist structure.
func mustEqualResults(t *testing.T, ctx string, want, got Result) {
	t.Helper()
	if want.DelayPS != got.DelayPS || want.AreaUM2 != got.AreaUM2 || want.Corner != got.Corner {
		t.Fatalf("%s: results differ: want {%.17g %.17g %s} got {%.17g %.17g %s}",
			ctx, want.DelayPS, want.AreaUM2, want.Corner, got.DelayPS, got.AreaUM2, got.Corner)
	}
	mustEqualNetlists(t, ctx, want.Netlist, got.Netlist)
}

// mustEqualStates compares the retained per-effort STA results of two
// evaluations bit for bit — every corner's arrival and slew at every
// net, not just the headline metrics.
func mustEqualStates(t *testing.T, ctx string, want, got *EvalState) {
	t.Helper()
	for e := 0; e < 2; e++ {
		a, b := want.srs[e], got.srs[e]
		if a.WorstDelayPS != b.WorstDelayPS || a.WorstCorner != b.WorstCorner ||
			a.AreaUM2 != b.AreaUM2 || len(a.Corners) != len(b.Corners) {
			t.Fatalf("%s: effort %d signoff summary differs", ctx, e)
		}
		for ci := range a.Corners {
			ca, cb := &a.Corners[ci], &b.Corners[ci]
			if ca.MaxDelayPS != cb.MaxDelayPS || ca.CriticalPO != cb.CriticalPO || ca.Corner != cb.Corner {
				t.Fatalf("%s: effort %d corner %d summary differs", ctx, e, ci)
			}
			for i := range ca.ArrivalPS {
				if ca.ArrivalPS[i] != cb.ArrivalPS[i] || ca.SlewPS[i] != cb.SlewPS[i] {
					t.Fatalf("%s: effort %d corner %d net %d values differ", ctx, e, ci, i)
				}
			}
		}
		mustEqualNetlists(t, ctx, want.nls[e], got.nls[e])
	}
}

// freshState evaluates g from a new zero Pool, the reference a
// recycled evaluation must reproduce.
func freshState(g *aig.AIG, lib *cell.Library) (Result, *EvalState, error) {
	return new(Pool).Evaluate(g, lib)
}

// FuzzPooledDelta feeds fuzz-chosen graph shapes and seeds through one
// long-lived pool (so carcasses and scratches are recycled across
// inputs, and across graphs of different sizes) and asserts that the
// pooled evaluation of a graph and of a chain of rebased mutations of
// it — annealer-style deltas, each evaluated while its predecessor's
// state is still live — is bit-identical to a fresh evaluation of the
// same graph: headline result, both efforts' netlists, and every
// corner's per-net arrivals and slews.
func FuzzPooledDelta(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(80), uint8(3))
	f.Add(int64(99), uint8(12), uint8(200), uint8(8))
	f.Add(int64(1234), uint8(2), uint8(15), uint8(1))
	f.Add(int64(20), uint8(8), uint8(107), uint8(2))
	lib := cell.Builtin()
	var pool Pool
	f.Fuzz(func(t *testing.T, seed int64, pis, ands, pos uint8) {
		rng := rand.New(rand.NewSource(seed))
		// Clamp into randomAIG's supported range (its PO picker reaches
		// up to 40 literals back, so keep at least that many).
		g := randomAIG(rng, 1+int(pis)%16, 40+int(ands), 1+int(pos)%8)
		wantR, wantSt, err := freshState(g, lib)
		if err != nil {
			t.Skip() // unmatchable graphs are not this fuzzer's subject
		}
		gotR, st, err := pool.Evaluate(g, lib)
		if err != nil {
			t.Fatalf("pooled evaluation errored where a fresh one succeeded: %v", err)
		}
		mustEqualResults(t, "fuzz-full", wantR, gotR)
		mustEqualStates(t, "fuzz-full", wantSt, st)
		cur := g
		for step := 0; step < 2; step++ {
			next := new(aig.Builder).Rebase(cur, mutate(cur, rng))
			wantR, wantSt, err1 := freshState(next, lib)
			gotR, gotSt, err2 := pool.Evaluate(next, lib)
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("step %d: error mismatch: fresh %v pooled %v", step, err1, err2)
			}
			if err1 != nil {
				break
			}
			mustEqualResults(t, "fuzz-delta", wantR, gotR)
			mustEqualStates(t, "fuzz-delta", wantSt, gotSt)
			st.Release()
			cur, st = next, gotSt
		}
		st.Release()
	})
}
