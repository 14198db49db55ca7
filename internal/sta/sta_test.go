package sta

import (
	"math"
	"math/rand"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/netlist"
	"aigtimer/internal/techmap"
)

// mapDefault maps g at the default effort with a new Mapper over cuts
// from a new cut.Enumerator.
func mapDefault(g *aig.AIG, lib *cell.Library) (*netlist.Netlist, error) {
	return new(techmap.Mapper).Map(g, lib, techmap.DefaultParams, new(cut.Enumerator).Enumerate(g, cut.DefaultParams), nil)
}

// chainNetlist builds PI -> INV -> INV -> ... -> PO.
func chainNetlist(n int) *netlist.Netlist {
	lib := cell.Builtin()
	b := netlist.MakeBuilder(lib, 1, nil)
	net := b.PINet(0)
	for i := 0; i < n; i++ {
		net = b.AddGate(lib.Inverter(), net)
	}
	b.AddPO(net)
	return b.Build()
}

func TestChainDelayAdds(t *testing.T) {
	lib := cell.Builtin()
	inv := lib.Inverter()
	nl := chainNetlist(3)
	r := Analyze(nl)

	// Loads: stages 0 and 1 drive one INV pin + wire; stage 2 drives PO.
	interLoad := inv.InputCapFF + lib.WireCapFF
	lastLoad := lib.WireCapFF + lib.OutputLoadFF
	want := 2*inv.DelayPS(interLoad) + inv.DelayPS(lastLoad)
	if math.Abs(r.MaxDelayPS-want) > 1e-9 {
		t.Fatalf("MaxDelayPS = %v, want %v", r.MaxDelayPS, want)
	}
	if got := r.MaxDelayNS(); math.Abs(got-want/1000) > 1e-12 {
		t.Fatalf("MaxDelayNS = %v", got)
	}
	if len(r.CriticalPath()) != 3 {
		t.Fatalf("critical path length = %d, want 3", len(r.CriticalPath()))
	}
}

func TestFanoutIncreasesDelay(t *testing.T) {
	lib := cell.Builtin()
	// One NAND2 driving k inverters; more fanout -> more load -> slower.
	build := func(k int) *netlist.Netlist {
		b := netlist.MakeBuilder(lib, 2, nil)
		n := b.AddGate(lib.CellByName("NAND2_X1"), b.PINet(0), b.PINet(1))
		for i := 0; i < k; i++ {
			b.AddPO(b.AddGate(lib.Inverter(), n))
		}
		return b.Build()
	}
	d1 := Analyze(build(1)).MaxDelayPS
	d4 := Analyze(build(4)).MaxDelayPS
	if d4 <= d1 {
		t.Fatalf("fanout-4 delay %.1f not larger than fanout-1 delay %.1f", d4, d1)
	}
}

func TestCriticalPathConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lib := cell.Builtin()
	g := randomAIG(rng, 8, 150, 5)
	nl, err := mapDefault(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(nl)
	if r.MaxDelayPS <= 0 {
		t.Fatalf("nonpositive max delay")
	}
	// Critical path arrivals must be monotonically increasing and end at
	// the max delay.
	path := r.CriticalPath()
	if len(path) == 0 {
		t.Fatalf("no critical path")
	}
	last := path[len(path)-1]
	if math.Abs(r.ArrivalPS[nl.Gates[last].Output]-r.MaxDelayPS) > 1e-9 {
		t.Fatalf("critical path does not end at max delay")
	}
	prev := -1.0
	for _, gi := range path {
		a := r.ArrivalPS[nl.Gates[gi].Output]
		if a <= prev {
			t.Fatalf("critical path arrivals not increasing")
		}
		prev = a
	}
}

func TestReportContainsPath(t *testing.T) {
	nl := chainNetlist(2)
	r := Analyze(nl)
	rep := r.Report()
	if len(rep) == 0 {
		t.Fatal("empty report")
	}
	for _, want := range []string{"max delay", "critical path", "INV_X1"} {
		if !contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func randomAIG(rng *rand.Rand, numPIs, numAnds, numPOs int) *aig.AIG {
	b := aig.NewBuilder(numPIs)
	lits := make([]aig.Lit, 0, numPIs+numAnds)
	for i := 0; i < numPIs; i++ {
		lits = append(lits, b.PI(i))
	}
	for len(lits) < numPIs+numAnds {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		c := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, b.And(a, c))
	}
	for i := 0; i < numPOs; i++ {
		b.AddPO(lits[len(lits)-1-rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0))
	}
	return b.Build()
}
