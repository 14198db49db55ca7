package anneal

import (
	"testing"
)

// The paper notes (§IV) that the learned cost oracle can drive other
// searches besides SA; Params expresses the two standard ones. Hill
// climbing is zero-temperature annealing (StartTemp 0, DecayRate 1), and
// multi-start is Chains independent chains merged best-of.

func TestHillClimbNeverAcceptsUphill(t *testing.T) {
	g := testAIG(21)
	p := DefaultParams
	p.Iterations = 50
	p.Seed = 2
	p.StartTemp = 0
	p.DecayRate = 1
	res, err := Run(g, proxyEval{}, p)
	if err != nil {
		t.Fatal(err)
	}
	prev := p.DelayWeight + p.AreaWeight
	for _, s := range res.History {
		if s.Accepted {
			if s.Cost > prev {
				t.Fatalf("hill climb accepted uphill: %.4f -> %.4f", prev, s.Cost)
			}
			prev = s.Cost
		}
	}
}

func TestMultiStartAtLeastAsGoodAsSingle(t *testing.T) {
	g := testAIG(22)
	p := DefaultParams
	p.Iterations = 20
	p.Seed = 5
	single, err := Run(g, proxyEval{}, p)
	if err != nil {
		t.Fatal(err)
	}
	p.Chains = 4
	multi, err := Run(g, proxyEval{}, p)
	if err != nil {
		t.Fatal(err)
	}
	// The first restart of the multi-start shares p.Seed, so the result
	// can never be worse than the single run.
	if multi.BestCost > single.BestCost {
		t.Fatalf("multi-start (%.4f) worse than single (%.4f)", multi.BestCost, single.BestCost)
	}
	// Timing must aggregate across restarts.
	if multi.EvalTime < single.EvalTime {
		t.Fatalf("multi-start eval time not aggregated")
	}
}

func TestMultiStartValidation(t *testing.T) {
	g := testAIG(23)
	p := DefaultParams
	p.Chains = -1
	if _, err := Run(g, proxyEval{}, p); err == nil {
		t.Fatal("Chains=-1 accepted")
	}
}
