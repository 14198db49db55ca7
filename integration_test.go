// Cross-module integration tests: these exercise the full pipeline the
// way the experiments do — benchmark designs through transforms, mapping,
// signoff, feature extraction, model training, and optimization — and
// check the end-to-end invariants that unit tests cannot see.
package aigtimer_test

import (
	"math/rand"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/dataset"
	"aigtimer/internal/flows"
	"aigtimer/internal/gbdt"
	"aigtimer/internal/signoff"
	"aigtimer/internal/stats"
	"aigtimer/internal/techmap"
	"aigtimer/internal/transform"
)

// randomEquivalent checks AIG-vs-netlist agreement on many random vectors
// (exhaustive is impractical at 16-18 PIs).
func randomEquivalent(t *testing.T, g *aig.AIG, nl interface {
	Eval([]bool) []bool
}, trials int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	words := 4
	pats := aig.RandomPatterns(g.NumPIs(), words, rng)
	res := g.Simulate(pats)
	in := make([]bool, g.NumPIs())
	for trial := 0; trial < trials; trial++ {
		bit := rng.Intn(words * 64)
		for i := range in {
			in[i] = pats[i][bit/64]>>(bit%64)&1 == 1
		}
		got := nl.Eval(in)
		for o := 0; o < g.NumPOs(); o++ {
			v := res.LitValues(g.PO(o))
			want := v[bit/64]>>(bit%64)&1 == 1
			if got[o] != want {
				t.Fatalf("netlist disagrees with AIG at PO %d", o)
			}
		}
	}
}

func TestSuiteMapsCorrectly(t *testing.T) {
	lib := cell.Builtin()
	for _, d := range bench.Suite() {
		d := d
		t.Run(d.Name, func(t *testing.T) {
			g := d.Build()
			nl, err := new(techmap.Mapper).Map(g, lib, techmap.DefaultParams, new(cut.Enumerator).Enumerate(g, cut.DefaultParams), nil)
			if err != nil {
				t.Fatal(err)
			}
			randomEquivalent(t, g, nl, 64, 1)
			// Mapping must compress depth (the paper's miscorrelation
			// source #1).
			if nl.LogicDepth() >= int(g.MaxLevel()) {
				t.Errorf("no depth compression: %d gates deep vs %d levels",
					nl.LogicDepth(), g.MaxLevel())
			}
		})
	}
}

func TestRecipesPreserveSuiteFunctions(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	recipes := transform.Recipes()
	for _, d := range bench.Suite() {
		g := d.Build()
		cur := g
		for i := 0; i < 3; i++ {
			cur = recipes[rng.Intn(len(recipes))].Apply(cur, rng)
		}
		if !aig.EquivalentRandom(g, cur, 64, 3) {
			t.Fatalf("%s: recipes changed function", d.Name)
		}
	}
}

func TestEndToEndPredictionQuality(t *testing.T) {
	d, err := bench.ByName("EX68")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	samples, err := dataset.Generate(d.Name, g, dataset.DefaultGenParams(60, 5))
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) < 40 {
		t.Fatalf("only %d samples", len(samples))
	}
	cut := len(samples) * 3 / 4
	X, delay, _ := dataset.Matrix(samples[:cut])
	model, err := gbdt.Train(X, delay, gbdt.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	hX, hDelay, _ := dataset.Matrix(samples[cut:])
	sum := stats.Summarize(stats.AbsPctErrors(hDelay, model.PredictAll(hX)))
	if sum.MeanPct > 15 {
		t.Fatalf("held-out mean error %.2f%% too high", sum.MeanPct)
	}
	// Predictions must correlate strongly with ground truth — this is
	// what makes the ML flow track the ground-truth flow in Fig. 5.
	r := stats.Pearson(hDelay, model.PredictAll(hX))
	if r < 0.6 {
		t.Fatalf("prediction correlation %.2f too low", r)
	}
}

func TestGroundTruthFlowImprovesSignoff(t *testing.T) {
	d, err := bench.ByName("EX00")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	lib := cell.Builtin()
	var pool signoff.Pool
	before, _, err := pool.Evaluate(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	p := anneal.DefaultParams
	p.Iterations = 40
	p.Seed = 12
	res, err := anneal.Run(g, flows.NewGroundTruth(lib), p)
	if err != nil {
		t.Fatal(err)
	}
	after, _, err := pool.Evaluate(res.Best, lib)
	if err != nil {
		t.Fatal(err)
	}
	if !aig.EquivalentRandom(g, res.Best, 64, 11) {
		t.Fatal("optimization changed function")
	}
	// The weighted cost must improve; demand improvement in the weighted
	// combination actually optimized.
	costBefore := p.DelayWeight*1 + p.AreaWeight*1
	costAfter := p.DelayWeight*after.DelayPS/before.DelayPS + p.AreaWeight*after.AreaUM2/before.AreaUM2
	if costAfter >= costBefore {
		t.Fatalf("no improvement: delay %.1f->%.1f area %.1f->%.1f",
			before.DelayPS, after.DelayPS, before.AreaUM2, after.AreaUM2)
	}
}

func TestProxyDelayMiscorrelationExists(t *testing.T) {
	// The repository-level restatement of Fig. 1 / Table I: across
	// variants of one design, level count must not perfectly determine
	// signoff delay.
	d, err := bench.ByName("EX68")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := dataset.Generate(d.Name, d.Build(), dataset.DefaultGenParams(50, 13))
	if err != nil {
		t.Fatal(err)
	}
	byLevel := map[int32][]float64{}
	var levels, delays []float64
	for _, s := range samples {
		byLevel[s.Levels] = append(byLevel[s.Levels], s.DelayPS)
		levels = append(levels, float64(s.Levels))
		delays = append(delays, s.DelayPS)
	}
	r := stats.Pearson(levels, delays)
	if r > 0.995 {
		t.Fatalf("level proxy is near-perfect (r=%.3f); miscorrelation mechanism missing", r)
	}
	// Some level bucket must contain meaningfully different delays.
	spread := 0.0
	for _, ds := range byLevel {
		lo, hi := stats.MinMax(ds)
		if lo > 0 && hi/lo > spread {
			spread = hi / lo
		}
	}
	if spread < 1.02 {
		t.Fatalf("same-level delay spread only %.3fx", spread)
	}
}
