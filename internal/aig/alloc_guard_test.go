package aig

import (
	"math/rand"
	"testing"
)

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
