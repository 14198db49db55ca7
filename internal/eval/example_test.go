package eval_test

import (
	"fmt"

	"aigtimer/internal/aig"
	"aigtimer/internal/eval"
)

// exampleChain builds a tiny AND chain over n PIs.
func exampleChain(n int) *aig.AIG {
	b := aig.NewBuilder(n)
	acc := b.PI(0)
	for i := 1; i < n; i++ {
		acc = b.And(acc, b.PI(i))
	}
	b.AddPO(acc)
	return b.Build()
}

// levelsEval is a deliberately simple oracle: delay = AIG depth, area =
// node count (the baseline flow's proxy metrics).
type levelsEval struct{ evals int }

func (e *levelsEval) Name() string { return "levels" }
func (e *levelsEval) Evaluate(g *aig.AIG) eval.Metrics {
	e.evals++
	return eval.Metrics{DelayPS: float64(g.MaxLevel()) + 1, AreaUM2: float64(g.NumAnds()) + 1}
}

// ExampleNewCachedLRU shows the memo cache collapsing repeated
// evaluations of structurally identical graphs, with the LRU bound
// evicting cold structures instead of growing without limit.
func ExampleNewCachedLRU() {
	ev := &levelsEval{}
	cached := eval.NewCachedLRU(eval.AsOracle(ev, 1), 2) // keep at most 2 structures

	a, b, c := exampleChain(4), exampleChain(5), exampleChain(6)
	cached.Evaluate(a)
	cached.Evaluate(a) // structurally equal -> served from memory
	cached.Evaluate(b)
	cached.Evaluate(c) // third structure -> evicts the least recently used (a)
	cached.Evaluate(a) // re-evaluated after eviction

	s := cached.Stats()
	fmt.Printf("underlying evals: %d\n", ev.evals)
	fmt.Printf("hits=%d misses=%d entries=%d evictions=%d\n",
		s.Hits, s.Misses, s.Entries, s.Evictions)
	// Output:
	// underlying evals: 4
	// hits=1 misses=4 entries=2 evictions=2
}
