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
//	BenchmarkRecipeApply/*           one pass of the 103-recipe move
//	                                 catalog over EX54, EX08 and a
//	                                 16-bit multiplier
//	BenchmarkSignoffEval/*           one pooled signoff evaluation of
//	                                 EX54, EX02, EX08 and a 16-bit
//	                                 multiplier
//	BenchmarkFeatureExtract/*        one Table II feature extraction
//	                                 (the ML flow's per-candidate cost
//	                                 before inference) over the same
//	                                 ladder
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
	"aigtimer/internal/netlist"
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
// with the reusable engine across pattern widths, on the 8x8 multiplier
// (the paper's Fig. 1 workload). The engine should win on every width and
// allocate nothing in steady state.
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
		var pool signoff.Pool
		for i := 0; i < b.N; i++ {
			_, st, err := pool.Evaluate(g, lib)
			if err != nil {
				b.Fatal(err)
			}
			st.Release()
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
			var pool signoff.Pool
			for i := 0; i < b.N; i++ {
				cand := recipes[rng.Intn(len(recipes))].Apply(g, rng)
				_, st, err := pool.Evaluate(cand, lib)
				if err != nil {
					b.Fatal(err)
				}
				st.Release()
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

// BenchmarkRecipeApply measures the move layer alone over a size
// ladder: one op applies each of the 103 catalog recipes to the design
// with ApplyTracked, every one from the same fixed seed. The rungs are
// EX54 (211 ANDs), EX08 (507) and bench.Multiplier(16) (2,784). A first
// pass fills the process-wide synthesis-program caches and warms the
// pooled movers before timing, as a long annealing run has.
func BenchmarkRecipeApply(b *testing.B) {
	rungs := []benchGraph{
		{"EX54", func() *aig.AIG { return mustDesign(b, "EX54") }},
		{"EX08", func() *aig.AIG { return mustDesign(b, "EX08") }},
		{"mult16", func() *aig.AIG { return bench.Multiplier(16) }},
	}
	recipes := transform.Recipes()
	for _, rung := range rungs {
		b.Run(rung.name, func(b *testing.B) {
			g := rung.g()
			pass := func() {
				for _, r := range recipes {
					recipeSink = r.ApplyTracked(g, rand.New(rand.NewSource(1)))
				}
			}
			pass()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
		})
	}
}

// mustDesign builds the named suite design.
func mustDesign(b *testing.B, name string) *aig.AIG {
	d, err := bench.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	return d.Build()
}

// benchGraph is one rung of a size ladder, its graph built on demand.
type benchGraph struct {
	name string
	g    func() *aig.AIG
}

// sizeLadder lists the rungs of the per-graph benchmarks: EX54 (211
// ANDs), EX02 (599), EX08 (507) and bench.Multiplier(16) (2,784).
func sizeLadder(b *testing.B) []benchGraph {
	return []benchGraph{
		{"EX54", func() *aig.AIG { return mustDesign(b, "EX54") }},
		{"EX02", func() *aig.AIG { return mustDesign(b, "EX02") }},
		{"EX08", func() *aig.AIG { return mustDesign(b, "EX08") }},
		{"mult16", func() *aig.AIG { return bench.Multiplier(16) }},
	}
}

// BenchmarkSignoffEval measures one pooled full signoff evaluation
// (shared dual-effort cut enumeration, two mappings, multi-corner STA)
// over the size ladder. Each rung is warmed to the pool's
// allocation-free steady state first, so it tracks both latency and
// that the steady state stays at 0 allocs/op.
func BenchmarkSignoffEval(b *testing.B) {
	lib := cell.Builtin()
	for _, rung := range sizeLadder(b) {
		b.Run(rung.name, func(b *testing.B) {
			g := rung.g()
			var pool signoff.Pool
			for i := 0; i < 2; i++ {
				_, st, err := pool.Evaluate(g, lib)
				if err != nil {
					b.Fatal(err)
				}
				st.Release()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_, st, err := pool.Evaluate(g, lib)
				if err != nil {
					b.Fatal(err)
				}
				st.Release()
			}
		})
	}
}

// BenchmarkFeatureExtract measures one features.Extract, the Table II
// feature vector the ML flow computes for every candidate, over the
// size ladder. Each graph's level and fanout caches are filled first,
// as they are for a candidate the annealer has already inspected.
func BenchmarkFeatureExtract(b *testing.B) {
	for _, rung := range sizeLadder(b) {
		b.Run(rung.name, func(b *testing.B) {
			g := rung.g()
			features.Extract(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				features.Extract(g)
			}
		})
	}
}

// BenchmarkAblation covers the design choices called out in DESIGN.md.
func BenchmarkAblation(b *testing.B) {
	designs, _, _ := fixtures(b)
	g := designs["EX08"]
	lib := cell.Builtin()

	// mapAt maps g at p over cuts enumerated at cp, reusing one
	// enumerator, mapper and netlist across iterations like signoff does.
	mapAt := func(b *testing.B, p techmap.Params, cp cut.Params) {
		var e cut.Enumerator
		var m techmap.Mapper
		var nl *netlist.Netlist
		for i := 0; i < b.N; i++ {
			var err error
			if nl, err = m.Map(g, lib, p, e.Enumerate(g, cp), nl); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("map-with-area-recovery", func(b *testing.B) {
		p := techmap.DefaultParams
		p.AreaRecovery = true
		mapAt(b, p, cut.DefaultParams)
	})
	b.Run("map-without-area-recovery", func(b *testing.B) {
		p := techmap.DefaultParams
		p.AreaRecovery = false
		mapAt(b, p, cut.DefaultParams)
	})
	for _, mc := range []int{2, 8, 24} {
		b.Run("map-maxcuts-"+itoa(mc), func(b *testing.B) {
			mapAt(b, techmap.DefaultParams, cut.Params{K: 4, MaxCuts: mc})
		})
	}
	nl, err := new(techmap.Mapper).Map(g, lib, techmap.DefaultParams, new(cut.Enumerator).Enumerate(g, cut.DefaultParams), nil)
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
			if _, err := sta.Signoff(nl, sta.SignoffParams{}, nil); err != nil {
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
