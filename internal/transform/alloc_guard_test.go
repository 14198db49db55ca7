package transform

import (
	"math/rand"
	"testing"

	"aigtimer/internal/bench"
	"aigtimer/internal/truth"
)

// Objects a warm mover allocates per recipe application: Apply's result
// is a copy of the final graph (the AIG, its node array and its output
// list); ApplyTracked's is the rebased graph (the same three).
const (
	applyAllocs        = 3
	applyTrackedAllocs = 3
)

// TestMoverAllocatesOnlyTheResult guards the retained move pipeline:
// once a mover has applied compress2rs to a design, applying it again
// allocates the final graph and nothing else, and the count does not
// depend on the design's size. The mover is driven directly because
// sync.Pool drops some Puts on purpose under the race detector.
func TestMoverAllocatesOnlyTheResult(t *testing.T) {
	var r Recipe
	for _, rc := range Recipes() {
		if rc.Name == "compress2rs" {
			r = rc
		}
	}
	for _, name := range []string{"EX54", "EX02"} {
		d, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		g := d.Build()
		// Warm the input's caches, as the annealer does before it
		// proposes moves from a graph.
		g.Levels()
		g.FanoutCounts()
		g.PairIndex()
		var m mover
		rng := rand.New(rand.NewSource(1))
		apply := func() { rng.Seed(1); m.apply(r, g, rng) }
		tracked := func() { rng.Seed(1); m.applyTracked(r, g, rng) }
		apply()
		tracked()
		if got := testing.AllocsPerRun(5, apply); got != applyAllocs {
			t.Errorf("%s: warm Apply allocates %v objects, want %d", name, got, applyAllocs)
		}
		if got := testing.AllocsPerRun(5, tracked); got != applyTrackedAllocs {
			t.Errorf("%s: warm ApplyTracked allocates %v objects, want %d", name, got, applyTrackedAllocs)
		}
	}
}

// TestRecordingAllocatesOnlyTheProgram guards the cache-miss path of
// synthesis: once a recorder has served tables of a width, recording
// another table of that width allocates the program (its header and
// its op list) and nothing else, for factored and flat synthesis.
func TestRecordingAllocatesOnlyTheProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var r recorder
	for _, synth := range []synthFunc{factored, flatSOP} {
		for n := 6; n <= 8; n++ {
			tables := make([]truth.TT, 8)
			for i := range tables {
				tables[i] = freshTable(rng, n)
				r.record(tables[i], synth)
			}
			i := 0
			got := testing.AllocsPerRun(len(tables), func() {
				r.record(tables[i%len(tables)], synth)
				i++
			})
			if got != 2 {
				t.Errorf("n=%d: recording on a warm recorder allocates %v objects, want 2", n, got)
			}
		}
	}
}
