// Benchmark harness: one benchmark per paper artifact, measuring the
// operations whose runtimes the paper's evaluation reports. Run with
//
//	go test -bench=. -benchmem
//
// Mapping to the paper:
//
//	BenchmarkFig1/label-*            cost of one scatter point in Fig. 1
//	                                 (ground-truth labeling of a variant)
//	BenchmarkFig2/*                  per-iteration cost of the baseline vs
//	                                 ground-truth flows (Fig. 2 bars)
//	BenchmarkTable3/train            GBDT training (§III-C)
//	BenchmarkTable3/inference        one model prediction
//	BenchmarkTable4/*                per-iteration evaluation cost of the
//	                                 three flows (Table IV columns)
//	BenchmarkFig5/sweep-point        one annealing run of the Fig. 5 sweep
//	BenchmarkRecipeApply             one pass of the 103-recipe move
//	                                 catalog over EX08
//	BenchmarkAblation/*              design-choice ablations from DESIGN.md
package aigtimer_test

import (
	"math/rand"
	"sync"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/dataset"
	"aigtimer/internal/features"
	"aigtimer/internal/flows"
	"aigtimer/internal/gbdt"
	"aigtimer/internal/signoff"
	"aigtimer/internal/sta"
	"aigtimer/internal/techmap"
	"aigtimer/internal/transform"
)

// fixtures are shared across benchmarks and built once.
var (
	fixOnce    sync.Once
	fixDesigns map[string]*aig.AIG
	fixSamples []dataset.Sample
	fixModel   *gbdt.Model
)

func fixtures(b *testing.B) (map[string]*aig.AIG, []dataset.Sample, *gbdt.Model) {
	b.Helper()
	fixOnce.Do(func() {
		fixDesigns = map[string]*aig.AIG{}
		for _, d := range bench.Suite() {
			fixDesigns[d.Name] = d.Build()
		}
		fixDesigns["mult5x5"] = bench.Multiplier(5)
		ss, err := dataset.Generate("EX00", fixDesigns["EX00"], dataset.DefaultGenParams(80, 1))
		if err != nil {
			panic(err)
		}
		fixSamples = ss
		X, delay, _ := dataset.Matrix(ss)
		p := gbdt.DefaultParams
		p.NumTrees = 120
		m, err := gbdt.Train(X, delay, p)
		if err != nil {
			panic(err)
		}
		fixModel = m
	})
	return fixDesigns, fixSamples, fixModel
}

// BenchmarkSimulate compares the legacy one-shot sequential simulation path
// with the reusable parallel engine across pattern widths, on the 8x8
// multiplier (the paper's Fig. 1 workload). The engine should win on every
// width ≥64 words on multi-core, and allocate nothing in steady state.
func BenchmarkSimulate(b *testing.B) {
	g := bench.Multiplier(8)
	for _, words := range []int{4, 64, 256, 1024} {
		rng := rand.New(rand.NewSource(7))
		pats := aig.RandomPatterns(g.NumPIs(), words, rng)
		b.Run("sequential/words-"+itoa(words), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = g.SimulateSequential(pats)
			}
		})
		b.Run("engine/words-"+itoa(words), func(b *testing.B) {
			sim := aig.NewSimulator(g)
			sim.Simulate(pats) // size buffers outside the timed region
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sim.Simulate(pats)
			}
		})
	}
	// Exhaustive-pattern shape used by fraig and equivalence checking.
	b.Run("engine/exhaustive-16pi", func(b *testing.B) {
		pats := aig.ExhaustivePatterns(g.NumPIs())
		sim := aig.NewSimulator(g)
		sim.Simulate(pats)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = sim.Simulate(pats)
		}
	})
	b.Run("sequential/exhaustive-16pi", func(b *testing.B) {
		pats := aig.ExhaustivePatterns(g.NumPIs())
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.SimulateSequential(pats)
		}
	})
}

// BenchmarkFig1 measures the cost of producing one (levels, delay) scatter
// point: a full ground-truth labeling of a multiplier variant.
func BenchmarkFig1(b *testing.B) {
	designs, _, _ := fixtures(b)
	g := designs["mult5x5"]
	lib := cell.Builtin()
	b.Run("label-mult5x5", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := signoff.Evaluate(g, lib); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("levels-proxy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			gc := g.Copy()
			_ = gc.MaxLevel()
		}
	})
}

// BenchmarkFig2 measures one optimization iteration of the baseline and
// ground-truth flows on each suite design (move + evaluation).
func BenchmarkFig2(b *testing.B) {
	designs, _, _ := fixtures(b)
	lib := cell.Builtin()
	recipes := transform.Recipes()
	for _, d := range bench.Suite() {
		g := designs[d.Name]
		b.Run("baseline/"+d.Name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				cand := recipes[rng.Intn(len(recipes))].Apply(g, rng)
				_ = cand.MaxLevel()
				_ = cand.NumAnds()
			}
		})
		b.Run("ground-truth/"+d.Name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				cand := recipes[rng.Intn(len(recipes))].Apply(g, rng)
				if _, err := signoff.Evaluate(cand, lib); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTable3 measures model training and inference (§III-C).
func BenchmarkTable3(b *testing.B) {
	_, samples, model := fixtures(b)
	X, delay, _ := dataset.Matrix(samples)
	b.Run("train", func(b *testing.B) {
		p := gbdt.DefaultParams
		p.NumTrees = 60
		for i := 0; i < b.N; i++ {
			if _, err := gbdt.Train(X, delay, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inference", func(b *testing.B) {
		x := X[0]
		for i := 0; i < b.N; i++ {
			_ = model.Predict(x)
		}
	})
}

// BenchmarkTable4 measures the per-iteration evaluation cost of the three
// flows on each design: the proxy lookup, the ground-truth mapping+STA,
// and the ML feature extraction + inference.
func BenchmarkTable4(b *testing.B) {
	designs, _, model := fixtures(b)
	lib := cell.Builtin()
	for _, d := range bench.Suite() {
		g := designs[d.Name]
		b.Run("proxy-eval/"+d.Name, func(b *testing.B) {
			ev := flows.Proxy{}
			for i := 0; i < b.N; i++ {
				_ = ev.Evaluate(g)
			}
		})
		b.Run("gt-eval/"+d.Name, func(b *testing.B) {
			ev := flows.NewGroundTruth(lib)
			for i := 0; i < b.N; i++ {
				_ = ev.Evaluate(g)
			}
		})
		b.Run("ml-eval/"+d.Name, func(b *testing.B) {
			ev := &flows.ML{DelayModel: model}
			for i := 0; i < b.N; i++ {
				_ = ev.Evaluate(g)
			}
		})
	}
}

// BenchmarkFig5 measures one annealing run of the kind the Fig. 5 / §II-B
// hyperparameter sweeps execute many of.
func BenchmarkFig5(b *testing.B) {
	designs, _, model := fixtures(b)
	g := designs["EX54"]
	p := anneal.DefaultParams
	p.Iterations = 10
	b.Run("sweep-point-ml", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Seed = int64(i + 1)
			if _, err := anneal.Run(g, &flows.ML{DelayModel: model}, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sweep-point-baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p.Seed = int64(i + 1)
			if _, err := anneal.Run(g, flows.Proxy{}, p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAnneal compares the sequential seed-style annealer
// configuration against the batched+cached evaluation layer at equal
// iteration count with the ground-truth oracle (and the proxy oracle as
// a floor). The trajectories are bit-identical by construction — only
// wall-clock and the eval/cache accounting differ. CI runs this
// old-vs-new pair and archives the richer BENCH_anneal.json artifact via
// `experiments bench-anneal`.
func BenchmarkAnneal(b *testing.B) {
	designs, _, _ := fixtures(b)
	g := designs["EX08"]
	lib := cell.Builtin()
	base := anneal.DefaultParams
	base.Iterations = 12
	base.Seed = 3

	run := func(b *testing.B, ev anneal.Evaluator, p anneal.Params) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			res, err := anneal.Run(g, ev, p)
			if err != nil {
				b.Fatal(err)
			}
			if i == b.N-1 {
				// Runs are deterministic, so the last run's counters are
				// every run's counters.
				b.ReportMetric(100*res.CacheHitRate(), "hit%")
				b.ReportMetric(float64(res.SpeculativeEvals), "spec-evals")
				b.ReportMetric(res.EvalTime.Seconds()/float64(res.TotalSteps()), "eval-s/iter")
				b.ReportMetric(res.MoveTime.Seconds()/float64(res.TotalSteps()), "move-s/iter")
			}
		}
	}
	b.Run("gt-sequential", func(b *testing.B) {
		p := base
		p.BatchSize, p.Workers = 1, 1
		p.CacheMode = anneal.CacheOff
		run(b, flows.NewGroundTruth(lib), p)
	})
	b.Run("gt-batched-cached", func(b *testing.B) {
		p := base
		p.BatchSize = 8
		p.CacheMode = anneal.CacheOn
		run(b, flows.NewGroundTruth(lib), p)
	})
	b.Run("gt-multichain-4", func(b *testing.B) {
		p := base
		p.Chains = 4
		run(b, flows.NewGroundTruth(lib), p)
	})
	b.Run("proxy-batched", func(b *testing.B) {
		p := base
		p.BatchSize = 8
		run(b, flows.Proxy{}, p)
	})
}

// recipeSink keeps BenchmarkRecipeApply's results live.
var recipeSink *aig.AIG

// BenchmarkRecipeApply measures the move layer alone: one op applies
// each of the 103 catalog recipes to EX08 with ApplyTracked, every one
// from the same fixed seed. A first pass fills the process-wide
// synthesis-program caches before timing, as a long annealing run has.
func BenchmarkRecipeApply(b *testing.B) {
	d, err := bench.ByName("EX08")
	if err != nil {
		b.Fatal(err)
	}
	g := d.Build()
	recipes := transform.Recipes()
	pass := func() {
		for _, r := range recipes {
			recipeSink, _ = r.ApplyTracked(g, rand.New(rand.NewSource(1)))
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}

// coneForest builds an AIG of `trees` independent logic cones (one PO
// each, disjoint PI supports, ~30 AND nodes per cone), so dirtying k
// cones touches exactly k/trees of the graph — a controllable workload
// for the incremental-evaluation benchmarks. The first `mutated` cones
// use a re-associated shape of the same function, so two forests that
// differ only in `mutated` share all remaining cones structurally.
func coneForest(trees, mutated int) *aig.AIG {
	const pisPerTree = 11
	b := aig.NewBuilder(trees * pisPerTree)
	for t := 0; t < trees; t++ {
		pis := make([]aig.Lit, pisPerTree)
		for i := range pis {
			pis[i] = b.PI(t*pisPerTree + i)
		}
		// An XOR-heavy reduction (~4 ANDs per XOR keeps cones around 30
		// nodes); the mutated variant re-associates the same function.
		var out aig.Lit
		if t < mutated {
			out = pis[pisPerTree-1]
			for i := pisPerTree - 2; i >= 0; i-- {
				out = b.Xor(out, pis[i])
			}
			out = b.And(out, b.Or(pis[0], pis[3]))
		} else {
			out = pis[0]
			for i := 1; i < pisPerTree; i++ {
				out = b.Xor(out, pis[i])
			}
			out = b.And(out, b.Or(pis[0], pis[3]))
		}
		b.AddPO(out)
	}
	return b.Build().Compact()
}

// BenchmarkIncrementalEval compares a full signoff evaluation (mapping
// at two efforts + 3-corner NLDM STA) against the incremental path at
// several dirty-cone sizes on a >= 2000-node AIG. The incremental
// result is bit-identical by construction (enforced by the eval-layer
// differential harness); this benchmark tracks the speedup, which
// should exceed 3x for small dirty cones (<= 5% of nodes). Both arms
// draw from one warmed signoff.Pool and release every result, as the
// annealer's evaluator does, so neither arm pays for fresh storage.
func BenchmarkIncrementalEval(b *testing.B) {
	const trees = 64
	lib := cell.Builtin()
	prev := coneForest(trees, 0)
	if prev.NumAnds() < 2000 {
		b.Fatalf("forest too small: %d ands", prev.NumAnds())
	}
	pool := signoff.NewPool()
	_, st, err := pool.EvaluateState(prev, lib)
	if err != nil {
		b.Fatal(err)
	}
	for _, dirtyTrees := range []int{1, 3, 16, 64} {
		raw := coneForest(trees, dirtyTrees)
		next, d := aig.Rebase(prev, raw)
		tag := itoa(dirtyTrees) + "of" + itoa(trees) + "-cones"
		run := func(b *testing.B, eval func() (*signoff.EvalState, error)) {
			for i := 0; i < 2; i++ { // warm the pool's carcasses for this graph
				ns, err := eval()
				if err != nil {
					b.Fatal(err)
				}
				ns.Release()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ns, err := eval()
				if err != nil {
					b.Fatal(err)
				}
				ns.Release()
			}
			b.ReportMetric(100*d.DirtyFraction(), "dirty%") // after ResetTimer, which drops reported metrics
		}
		b.Run("full/dirty-"+tag, func(b *testing.B) {
			run(b, func() (*signoff.EvalState, error) {
				_, ns, err := pool.EvaluateState(next, lib)
				return ns, err
			})
		})
		b.Run("incremental/dirty-"+tag, func(b *testing.B) {
			run(b, func() (*signoff.EvalState, error) {
				_, ns, err := st.EvaluateDelta(next, d)
				return ns, err
			})
		})
	}
}

// BenchmarkSignoffEval measures one pooled full signoff evaluation of
// EX08 (shared dual-effort cut enumeration, two mappings, multi-corner
// STA), warmed to the pool's allocation-free steady state first, so it
// tracks both latency and that the steady state stays at 0 allocs/op.
func BenchmarkSignoffEval(b *testing.B) {
	designs, _, _ := fixtures(b)
	g := designs["EX08"]
	lib := cell.Builtin()
	pool := signoff.NewPool()
	for i := 0; i < 2; i++ {
		_, st, err := pool.EvaluateState(g, lib)
		if err != nil {
			b.Fatal(err)
		}
		st.Release()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := pool.EvaluateState(g, lib)
		if err != nil {
			b.Fatal(err)
		}
		st.Release()
	}
}

// BenchmarkAblation covers the design choices called out in DESIGN.md.
func BenchmarkAblation(b *testing.B) {
	designs, _, _ := fixtures(b)
	g := designs["EX08"]
	lib := cell.Builtin()

	b.Run("map-with-area-recovery", func(b *testing.B) {
		p := techmap.DefaultParams
		p.AreaRecovery = true
		for i := 0; i < b.N; i++ {
			if _, err := techmap.Map(g, lib, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("map-without-area-recovery", func(b *testing.B) {
		p := techmap.DefaultParams
		p.AreaRecovery = false
		for i := 0; i < b.N; i++ {
			if _, err := techmap.Map(g, lib, p); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, mc := range []int{2, 8, 24} {
		p := techmap.DefaultParams
		p.Cut = cut.Params{K: 4, MaxCuts: mc}
		b.Run("map-maxcuts-"+itoa(mc), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := techmap.Map(g, lib, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	nl, err := techmap.Map(g, lib, techmap.DefaultParams)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("sta-linear", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = sta.Analyze(nl)
		}
	})
	b.Run("sta-nldm-3corner", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := sta.Signoff(nl, sta.SignoffParams{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("feature-extraction", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = features.Extract(g)
		}
	})
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
