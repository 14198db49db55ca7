package sta_test

import (
	"math/rand"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/sta"
	"aigtimer/internal/techmap"
)

// TestSignoffIntoZeroAllocs guards the recycled signoff path: with a
// dead result carcass to analyze into, a steady-state Signoff must not
// touch the heap.
func TestSignoffIntoZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := aig.NewBuilder(6)
	lits := make([]aig.Lit, 0, 6+150)
	for i := 0; i < 6; i++ {
		lits = append(lits, b.PI(i))
	}
	for len(lits) < cap(lits) {
		x := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		y := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, b.And(x, y))
	}
	b.AddPO(lits[len(lits)-1])
	b.AddPO(lits[len(lits)-5])
	g := b.Build().Compact()

	nl, err := new(techmap.Mapper).Map(g, cell.Builtin(), techmap.DefaultParams, new(cut.Enumerator).Enumerate(g, cut.DefaultParams), nil)
	if err != nil {
		t.Fatal(err)
	}
	p := sta.SignoffParams{}
	prev, err := sta.Signoff(nl, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	spare, err := sta.Signoff(nl, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(50, func() {
		r, err := sta.Signoff(nl, p, spare)
		if err != nil {
			t.Fatal(err)
		}
		prev, spare = r, prev
	})
	if avg != 0 {
		t.Fatalf("Signoff allocates %.1f objects per run, want 0", avg)
	}
	if prev.WorstDelayPS <= 0 {
		t.Fatal("degenerate analysis")
	}
}
