package transform

import (
	"math/rand"
	"sync"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/bench"
)

// TestMoverReuseMatchesFresh applies recipes with one mover to designs
// of alternating size and checks every result against a fresh mover's:
// nothing a step retains may leak into the next graph.
func TestMoverReuseMatchesFresh(t *testing.T) {
	var designs []*aig.AIG
	for _, name := range []string{"EX08", "EX68", "EX02"} {
		d, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		designs = append(designs, d.Build())
	}
	designs = append(designs, bench.Multiplier(8))
	var m mover
	recipes := Recipes()
	for i := 0; i < 24; i++ {
		g := designs[i%len(designs)]
		r := recipes[(7*i)%len(recipes)]
		got := m.applyTracked(r, g, rand.New(rand.NewSource(int64(i))))
		want := new(mover).applyTracked(r, g, rand.New(rand.NewSource(int64(i))))
		if !got.StructuralEqual(want) {
			t.Fatalf("%s on design %d: reused mover differs from a fresh one", r.Name, i%len(designs))
		}
	}
}

// TestConcurrentApplyMatchesSequential applies recipes to one shared,
// warmed graph from several goroutines at once, as the annealer's
// workers do, and checks each result against a sequential application:
// the pooled movers must never be shared, and the input graph is only
// read.
func TestConcurrentApplyMatchesSequential(t *testing.T) {
	d, err := bench.ByName("EX54")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	g.Levels()
	g.FanoutCounts()
	g.PairIndex()
	recipes := Recipes()[:24]
	want := make([]*aig.AIG, len(recipes))
	for i, r := range recipes {
		want[i] = r.ApplyTracked(g, rand.New(rand.NewSource(int64(i))))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range recipes {
				i := (k + 5*w) % len(recipes)
				got := recipes[i].ApplyTracked(g, rand.New(rand.NewSource(int64(i))))
				if !got.StructuralEqual(want[i]) {
					t.Errorf("worker %d: %s differs from its sequential result", w, recipes[i].Name)
				}
			}
		}(w)
	}
	wg.Wait()
}
