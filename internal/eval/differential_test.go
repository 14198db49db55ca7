// Differential test harness for the evaluation stack: random transform
// sequences over seeded random AIGs, asserting that the stack a sweep
// shares across its grid points (the memo cache over each flow's
// evaluator, the ground-truth one recycling storage through its
// signoff.Pool) returns metrics bit-identical to a fresh evaluation at
// every step. Candidates are rebased against their parent
// (Recipe.ApplyTracked), exactly as the annealer proposes them.
package eval_test

import (
	"math/rand"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/cell"
	"aigtimer/internal/dataset"
	"aigtimer/internal/eval"
	"aigtimer/internal/flows"
	"aigtimer/internal/gbdt"
	"aigtimer/internal/signoff"
	"aigtimer/internal/transform"
)

// harnessAIG builds a random strashed AIG; equal seeds give equal graphs.
func harnessAIG(seed int64, numPIs, numAnds, numPOs int) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
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
		b.AddPO(lits[len(lits)-1-rng.Intn(len(lits)/2)].NotIf(rng.Intn(2) == 0))
	}
	return b.Build().Compact()
}

// walkSteps is the per-graph length of a differential random walk.
func walkSteps(t *testing.T, full int) int {
	if testing.Short() {
		return full / 8
	}
	return full
}

// freshSignoff is the ground-truth reference: every call evaluates from
// a new zero signoff.Pool, with flows.GroundTruth's metric convention.
type freshSignoff struct{ lib *cell.Library }

func (freshSignoff) Name() string { return "fresh-signoff" }

func (f freshSignoff) Evaluate(g *aig.AIG) eval.Metrics {
	r, _, err := new(signoff.Pool).Evaluate(g, f.lib)
	if err != nil {
		return eval.Metrics{DelayPS: 1e12, AreaUM2: 1e12}
	}
	return eval.Metrics{DelayPS: r.DelayPS + 1, AreaUM2: r.AreaUM2 + 1}
}

// differentialWalk drives `steps` random transform moves from g0,
// scoring every candidate through both evaluators and failing on the
// first metric divergence. Returns the number of steps taken.
func differentialWalk(t *testing.T, g0 *aig.AIG, stack, ref eval.Evaluator, steps int, seed int64) int {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	recipes := transform.Recipes()
	if m0, mf := stack.Evaluate(g0), ref.Evaluate(g0); m0 != mf {
		t.Fatalf("initial metrics diverge: stack %+v reference %+v", m0, mf)
	}
	cur := g0
	for s := 0; s < steps; s++ {
		r := recipes[rng.Intn(len(recipes))]
		next := r.ApplyTracked(cur, rng)
		mStack := stack.Evaluate(next)
		mRef := ref.Evaluate(next)
		if mStack != mRef {
			t.Fatalf("step %d (%s): stack %+v != reference %+v", s, r.Name, mStack, mRef)
		}
		if rng.Intn(2) == 0 { // wander: accept about half the moves
			cur = next
		}
	}
	return steps
}

// TestDifferentialGroundTruthExact is the core harness: >= 1000 random
// transform steps across several seeded AIGs, the pooled ground-truth
// sweep stack bit-identical to fresh signoff evaluations at every step.
func TestDifferentialGroundTruthExact(t *testing.T) {
	lib := cell.Builtin()
	total := 0
	for i, shape := range []struct {
		seed                  int64
		pis, ands, pos, steps int
	}{
		{1, 5, 60, 2, 260},
		{2, 7, 120, 4, 260},
		{3, 4, 40, 1, 260},
		{4, 8, 150, 3, 260},
	} {
		g0 := harnessAIG(shape.seed, shape.pis, shape.ands, shape.pos)
		stack := flows.NewSweepStack(flows.NewGroundTruth(lib), anneal.Params{CacheMaxEntries: 4})
		total += differentialWalk(t, g0, stack, freshSignoff{lib},
			walkSteps(t, shape.steps), int64(100+i))
	}
	if !testing.Short() && total < 1000 {
		t.Fatalf("harness too small: %d steps", total)
	}
}

// TestDifferentialEveryFlowEvaluator runs the harness over all three
// flow evaluators behind the sweep stack: the ground-truth and ML
// oracles sit under the memo cache, the proxy passes through uncached,
// and all must stay bit-identical to a bare evaluator.
func TestDifferentialEveryFlowEvaluator(t *testing.T) {
	lib := cell.Builtin()
	g0 := harnessAIG(11, 6, 80, 3)

	samples, err := dataset.Generate("diff", g0, dataset.DefaultGenParams(30, 5))
	if err != nil {
		t.Fatal(err)
	}
	X, delay, _ := dataset.Matrix(samples)
	gp := gbdt.DefaultParams
	gp.NumTrees = 40
	dm, err := gbdt.Train(X, delay, gp)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		mk   func() eval.Evaluator
	}{
		{"baseline", func() eval.Evaluator { return flows.Proxy{} }},
		{"ml", func() eval.Evaluator { return &flows.ML{DelayModel: dm} }},
		{"ground-truth", func() eval.Evaluator { return flows.NewGroundTruth(lib) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stack := flows.NewSweepStack(tc.mk(), anneal.Params{})
			differentialWalk(t, g0, stack, tc.mk(), walkSteps(t, 64), 7)
		})
	}
}
