package sta

import (
	"math/rand"
	"testing"

	"aigtimer/internal/cell"
	"aigtimer/internal/netlist"
)

func TestSignoffCornersOrdered(t *testing.T) {
	nl := chainNetlist(4)
	r, err := Signoff(nl, SignoffParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Corners) != len(cell.SignoffCorners) {
		t.Fatalf("corner count %d", len(r.Corners))
	}
	// Slow corner must govern.
	if r.WorstCorner != "SS" {
		t.Fatalf("worst corner %s", r.WorstCorner)
	}
	var ff, tt, ss float64
	for _, cr := range r.Corners {
		switch cr.Corner.Name {
		case "FF":
			ff = cr.MaxDelayPS
		case "TT":
			tt = cr.MaxDelayPS
		case "SS":
			ss = cr.MaxDelayPS
		}
	}
	if !(ff < tt && tt < ss) {
		t.Fatalf("corner ordering violated: FF=%.1f TT=%.1f SS=%.1f", ff, tt, ss)
	}
	if r.WorstDelayPS != ss {
		t.Fatalf("worst delay %.1f != SS %.1f", r.WorstDelayPS, ss)
	}
}

func TestSignoffSlewPropagationIncreasesDelay(t *testing.T) {
	// The NLDM delay includes a slew-sensitivity term, so signoff TT delay
	// must exceed the slew-less linear-model delay on a deep chain.
	nl := chainNetlist(6)
	lin := Analyze(nl)
	r, err := Signoff(nl, SignoffParams{Corners: []cell.Corner{{Name: "TT", Scale: 1}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.WorstDelayPS <= lin.MaxDelayPS {
		t.Fatalf("NLDM delay %.1f not above linear %.1f", r.WorstDelayPS, lin.MaxDelayPS)
	}
	// But within a sane factor (slew term is a correction, not dominant).
	if r.WorstDelayPS > 2*lin.MaxDelayPS {
		t.Fatalf("NLDM delay %.1f implausibly high vs linear %.1f", r.WorstDelayPS, lin.MaxDelayPS)
	}
}

func TestSignoffInputSlewMatters(t *testing.T) {
	nl := chainNetlist(2)
	fast, err := Signoff(nl, SignoffParams{InputSlewPS: 5}, nil)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Signoff(nl, SignoffParams{InputSlewPS: 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if slow.WorstDelayPS <= fast.WorstDelayPS {
		t.Fatalf("input slew had no effect: %.1f vs %.1f", fast.WorstDelayPS, slow.WorstDelayPS)
	}
}

func TestSignoffOnMappedDesign(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	lib := cell.Builtin()
	g := randomAIG(rng, 8, 120, 4)
	nl, err := mapDefault(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Signoff(nl, SignoffParams{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r.WorstDelayPS <= 0 || r.AreaUM2 != nl.AreaUM2() {
		t.Fatalf("bad signoff result: %+v", r)
	}
	// Slew values must be positive everywhere downstream of gates.
	for _, cr := range r.Corners {
		for gi := range nl.Gates {
			out := nl.Gates[gi].Output
			if cr.SlewPS[out] <= 0 {
				t.Fatalf("nonpositive slew on net %d at %s", out, cr.Corner.Name)
			}
		}
	}
}

func TestSignoffRejectsUncharacterizedCell(t *testing.T) {
	lib := cell.Builtin()
	bare := &cell.Cell{Name: "RAW", NumInputs: 1, Function: 0x1, AreaUM2: 1}
	b := netlist.MakeBuilder(lib, 1, nil)
	b.AddPO(b.AddGate(bare, b.PINet(0)))
	if _, err := Signoff(b.Build(), SignoffParams{}, nil); err == nil {
		t.Fatal("uncharacterized cell accepted")
	}
}

func TestTimingTableLookup(t *testing.T) {
	tab := cell.TimingTable{
		SlewAxis: []float64{0, 10},
		LoadAxis: []float64{0, 10},
		Values:   [][]float64{{0, 10}, {20, 30}},
	}
	cases := []struct {
		s, l, want float64
	}{
		{0, 0, 0}, {0, 10, 10}, {10, 0, 20}, {10, 10, 30},
		{5, 5, 15},    // center
		{-5, 0, 0},    // clamp low
		{20, 20, 30},  // clamp high
		{0, 2.5, 2.5}, // partial
	}
	for _, c := range cases {
		if got := tab.Lookup(c.s, c.l); got != c.want {
			t.Errorf("Lookup(%v,%v) = %v, want %v", c.s, c.l, got, c.want)
		}
	}
}
