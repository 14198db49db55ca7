package aig

import (
	"math/rand"
	"testing"
)

// TestResimulateZeroAllocs guards the incremental simulation loop:
// once a Simulator's buffers are warm, SetPI + Resimulate must not
// touch the heap, whatever cone the changed input dirties.
func TestResimulateZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := NewBuilder(8)
	lits := make([]Lit, 0, 8+200)
	for i := 0; i < 8; i++ {
		lits = append(lits, b.PI(i))
	}
	for len(lits) < cap(lits) {
		x := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		y := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, b.And(x, y))
	}
	b.AddPO(lits[len(lits)-1])
	g := b.Build().Compact()

	const words = 4
	pats := make([][]uint64, g.NumPIs())
	for i := range pats {
		pats[i] = make([]uint64, words)
		for w := range pats[i] {
			pats[i][w] = rng.Uint64()
		}
	}
	rows := [2][]uint64{make([]uint64, words), make([]uint64, words)}
	for w := 0; w < words; w++ {
		rows[0][w] = rng.Uint64()
		rows[1][w] = rng.Uint64()
	}

	sim := NewSimulator(g)
	sim.Simulate(pats)
	flip := 0
	// Warm once: the first Resimulate after Simulate touches no new
	// storage either, but keep the guard strictly steady-state.
	sim.SetPI(0, rows[flip&1])
	sim.Resimulate()
	avg := testing.AllocsPerRun(50, func() {
		flip++
		sim.SetPI(0, rows[flip&1])
		sim.Resimulate()
	})
	if avg != 0 {
		t.Fatalf("SetPI+Resimulate allocates %.1f objects per run, want 0", avg)
	}
}

// TestSimulateWordsZeroAllocs guards full simulation at 256 words, the
// widest pattern set a move simulates (fraig): once the buffers are
// sized, SimulateWords must not touch the heap.
func TestSimulateWordsZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := randomAIG(rng, 16, 400, 4)
	const words = 256
	pats := RandomPatterns(g.NumPIs(), words, rng)
	sim := NewSimulator(g)
	sim.SimulateWords(pats, words)
	avg := testing.AllocsPerRun(20, func() { sim.SimulateWords(pats, words) })
	if avg != 0 {
		t.Fatalf("SimulateWords allocates %.1f objects per run, want 0", avg)
	}
}
