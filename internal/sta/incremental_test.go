package sta

import (
	"math/rand"
	"reflect"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/netlist"
	"aigtimer/internal/techmap"
)

func sameSignoff(t *testing.T, got, want *SignoffResult) {
	t.Helper()
	if got.WorstDelayPS != want.WorstDelayPS || got.WorstCorner != want.WorstCorner || got.AreaUM2 != want.AreaUM2 {
		t.Fatalf("signoff summary differs: got (%v, %s) want (%v, %s)",
			got.WorstDelayPS, got.WorstCorner, want.WorstDelayPS, want.WorstCorner)
	}
	if len(got.Corners) != len(want.Corners) {
		t.Fatalf("corner count differs")
	}
	for i := range got.Corners {
		g, w := &got.Corners[i], &want.Corners[i]
		if g.MaxDelayPS != w.MaxDelayPS || g.CriticalPO != w.CriticalPO {
			t.Fatalf("corner %s summary differs", g.Corner.Name)
		}
		if !reflect.DeepEqual(g.ArrivalPS, w.ArrivalPS) || !reflect.DeepEqual(g.SlewPS, w.SlewPS) {
			t.Fatalf("corner %s per-net values differ", g.Corner.Name)
		}
	}
}

// remapPair maps prev, mutates it, and returns the previous state's
// netlist analysis inputs plus the remapped netlist, the correspondence,
// and the number of dirty AND nodes in the rebased delta.
func remapPair(t *testing.T, rng *rand.Rand, ands int) (prevNl, nextNl *netlist.Netlist, nm netlist.NetMap, dirty int) {
	t.Helper()
	lib := cell.Builtin()
	prev := randomAIG(rng, 5+rng.Intn(4), ands, 2+rng.Intn(3))
	_, st, err := techmap.MapState(prev, lib, techmap.DefaultParams)
	if err != nil {
		t.Fatalf("MapState: %v", err)
	}
	raw := mutateForTest(prev, rng)
	next, d := aig.Rebase(prev, raw)
	nl, _, netmap, err := techmap.Remap(st, next, d)
	if err != nil {
		t.Fatalf("Remap: %v", err)
	}
	return st.Netlist(), nl, netmap, d.NumDirty()
}

// mutateForTest re-strashes g and rebuilds about one AND in ten as
// (a·c)·a or (a·c)·c: the function is kept, but strashing cannot fold
// the redundant node back, so the rebased delta has a real dirty suffix.
func mutateForTest(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	nb := aig.NewBuilder(g.NumPIs())
	m := make([]aig.Lit, g.NumNodes())
	m[0] = aig.ConstFalse
	for i := 1; i <= g.NumPIs(); i++ {
		m[i] = nb.PI(i - 1)
	}
	g.TopoForEachAnd(func(n int32, f0, f1 aig.Lit) {
		a := m[f0.Node()].NotIf(f0.IsCompl())
		c := m[f1.Node()].NotIf(f1.IsCompl())
		switch rng.Intn(20) {
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

func TestSignoffUpdateMatchesSignoff(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	changed := 0
	for trial := 0; trial < 20; trial++ {
		prevNl, nextNl, nm, dirty := remapPair(t, rng, 40+rng.Intn(120))
		if dirty > 0 {
			changed++
		}
		prevRes, err := Signoff(prevNl, SignoffParams{})
		if err != nil {
			t.Fatalf("Signoff(prev): %v", err)
		}
		got, err := SignoffUpdate(prevRes, nextNl, nm, SignoffParams{})
		if err != nil {
			t.Fatalf("SignoffUpdate: %v", err)
		}
		want, err := Signoff(nextNl, SignoffParams{})
		if err != nil {
			t.Fatalf("Signoff(next): %v", err)
		}
		sameSignoff(t, got, want)
	}
	if changed < 10 {
		t.Fatalf("only %d of 20 deltas are non-empty", changed)
	}
}

func TestSignoffUpdateRejectsMismatchedParams(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	prevNl, nextNl, nm, _ := remapPair(t, rng, 60)
	prevRes, err := Signoff(prevNl, SignoffParams{})
	if err != nil {
		t.Fatalf("Signoff(prev): %v", err)
	}
	// Same corner count, different scales / slew: must fall back to a
	// full analysis under the NEW parameters, never mix corner sets.
	for _, p := range []SignoffParams{
		{InputSlewPS: 35},
		{Corners: []cell.Corner{{Name: "A", Scale: 0.9}, {Name: "B", Scale: 1}, {Name: "C", Scale: 1.3}}},
	} {
		got, err := SignoffUpdate(prevRes, nextNl, nm, p)
		if err != nil {
			t.Fatalf("SignoffUpdate: %v", err)
		}
		want, err := Signoff(nextNl, p)
		if err != nil {
			t.Fatalf("Signoff(next): %v", err)
		}
		sameSignoff(t, got, want)
	}
}
