package techmap

import (
	"testing"

	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
)

// TestMapperZeroAllocs guards the retained mapping path: a warm Mapper
// mapping EX08 into the netlist its previous call built must not touch
// the heap.
func TestMapperZeroAllocs(t *testing.T) {
	d, err := bench.ByName("EX08")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	lib := cell.Builtin()
	cuts := new(cut.Enumerator).Enumerate(g, cut.DefaultParams)
	var m Mapper
	nl, err := m.Map(g, lib, DefaultParams, cuts, nil)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if nl, err = m.Map(g, lib, DefaultParams, cuts, nl); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("Mapper.Map allocates %.1f objects per run, want 0", avg)
	}
}
