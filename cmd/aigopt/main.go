// Command aigopt optimizes a benchmark design (or an AIG file) with one of
// the three flows from the paper: baseline (proxy metrics), ground-truth
// (mapping + signoff STA per iteration), or ML (trained timing/area
// predictors).
//
// Examples:
//
//	aigopt -design EX08 -flow ground-truth -iters 200
//	aigopt -in mydesign.aag -flow ml -model model.json -area-model area.json
//	aigopt -design EX54 -flow baseline -w-delay 1 -w-area 0.5 -out best.aag
//	aigopt -design EX08 -flow ground-truth -sweep -shard host1:9610,host2:9610
//	aigopt -suite EX08,EX54,EX60 -flow ground-truth -shard host1:9610
//	aigopt -suite EX08,EX54 -flow ground-truth -hub 127.0.0.1:9620
//	aigopt -suite EX08,EX54 -flow ground-truth -store sweeps.store
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/eval"
	"aigtimer/internal/flows"
	"aigtimer/internal/gbdt"
	"aigtimer/internal/shard"
	"aigtimer/internal/signoff"
)

func main() {
	var (
		designName = flag.String("design", "", "benchmark suite design (EX00..EX68)")
		inPath     = flag.String("in", "", "input AIG file (aag text format)")
		outPath    = flag.String("out", "", "write the optimized AIG here")
		flowName   = flag.String("flow", "baseline", "baseline | ground-truth | ml")
		modelPath  = flag.String("model", "", "delay model JSON (required for -flow ml)")
		areaPath   = flag.String("area-model", "", "area model JSON (optional for -flow ml)")
		iters      = flag.Int("iters", 150, "annealing iterations")
		wDelay     = flag.Float64("w-delay", 1.0, "delay weight in the cost function")
		wArea      = flag.Float64("w-area", 0.5, "area weight in the cost function")
		startTemp  = flag.Float64("temp", 0.05, "initial annealing temperature")
		decay      = flag.Float64("decay", 0.97, "temperature decay rate per iteration")
		seed       = flag.Int64("seed", 1, "random seed")
		batch      = flag.Int("batch", 0, "speculative candidates scored per annealing round (0 = auto; trajectory is batch-invariant)")
		batchMin   = flag.Int("batch-min", 0, "adaptive batch floor (with -batch-max; 0 = 1)")
		batchMax   = flag.Int("batch-max", 0, "adaptive batch ceiling: when > 0 the speculative budget tracks the recent acceptance rate within [-batch-min, -batch-max] (trajectory unchanged)")
		workers    = flag.Int("workers", 0, "concurrent evaluations (0 = GOMAXPROCS)")
		chains     = flag.Int("chains", 1, "parallel annealing chains, merged best-of")
		noCache    = flag.Bool("no-cache", false, "disable the structural-fingerprint evaluation cache")
		cacheMax   = flag.Int("cache-max", 0, "LRU bound on cached evaluations (0 = unbounded)")
		sweep      = flag.Bool("sweep", false, "run the hyperparameter sweep (Fig. 5 grid) instead of a single optimization and print the Pareto front")
		suite      = flag.String("suite", "", "comma-separated benchmark designs to sweep through one session (implies -sweep; mutually exclusive with -design/-in)")
		shardAddrs = flag.String("shard", "", "comma-separated sweepd worker addresses; distributes -sweep/-suite across them (empty = local worker pool)")
		hubAddr    = flag.String("hub", "", "sweephub coordinator address; submits -sweep/-suite to the resident hub fleet instead of dialing workers directly")
		preseed    = flag.Bool("preseed", true, "push merged cache records to shard workers mid-sweep (recovers cross-worker duplicate evaluations; results unchanged)")
		storePath  = flag.String("store", "", "persistent evaluation store file for -sweep/-suite: warm-start from past runs' records and flush this run's back (results unchanged)")
		noTune     = flag.Bool("no-autotune", false, "disable the measurement pilot that fills unset cost knobs (batch bounds, workers); explicit flags always pin their knob either way")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile here (pprof format), covering the whole run")
		memProf    = flag.String("memprofile", "", "write an allocation profile here (pprof format) at exit")
		verbose    = flag.Bool("v", false, "print per-iteration progress")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProf != "" {
		defer writeMemProfile(*memProf)
	}

	lib := cell.Builtin()
	ev, err := makeEvaluator(*flowName, lib, *modelPath, *areaPath, *workers)
	if err != nil {
		fatal(err)
	}

	p := anneal.Params{
		Iterations:      *iters,
		StartTemp:       *startTemp,
		DecayRate:       *decay,
		DelayWeight:     *wDelay,
		AreaWeight:      *wArea,
		Seed:            *seed,
		BatchSize:       *batch,
		BatchMin:        *batchMin,
		BatchMax:        *batchMax,
		Workers:         *workers,
		Chains:          *chains,
		CacheMaxEntries: *cacheMax,
	}
	if *noCache {
		p.CacheMode = anneal.CacheOff
	}
	var store *eval.Store
	if *storePath != "" {
		if !*sweep && *suite == "" {
			fatal(fmt.Errorf("aigopt: -store requires -sweep or -suite (single runs have no record store)"))
		}
		if *hubAddr != "" {
			fatal(fmt.Errorf("aigopt: -store is incompatible with -hub (the hub owns the store; run sweephub -store instead)"))
		}
		s, err := eval.OpenStore(*storePath)
		if err != nil {
			fatal(err)
		}
		defer s.Close()
		if rb := s.RecoveredBytes(); rb > 0 {
			fmt.Fprintf(os.Stderr, "aigopt: store %s: dropped %d damaged trailing bytes during recovery\n", *storePath, rb)
		}
		fmt.Printf("store %s: %d records across %d (design, evaluator) keys\n", *storePath, s.Len(), s.NumKeys())
		store = s
	}
	if *shardAddrs != "" && *hubAddr != "" {
		fatal(fmt.Errorf("aigopt: -shard and -hub are mutually exclusive (the hub owns its own fleet)"))
	}
	if *suite != "" {
		if *designName != "" || *inPath != "" {
			fatal(fmt.Errorf("aigopt: -suite is mutually exclusive with -design and -in"))
		}
		runSuite(strings.Split(*suite, ","), ev, lib, p, *shardAddrs, *hubAddr, *preseed, store, !*noTune)
		return
	}
	g, name, err := loadInput(*designName, *inPath)
	if err != nil {
		fatal(err)
	}
	if *sweep {
		runSweep(g, name, ev, lib, p, *shardAddrs, *hubAddr, *preseed, store, !*noTune)
		return
	}
	if *shardAddrs != "" || *hubAddr != "" {
		fatal(fmt.Errorf("aigopt: -shard/-hub require -sweep or -suite (single runs have nothing to distribute)"))
	}
	fmt.Printf("optimizing %s (%d PIs, %d POs, %d nodes, %d levels) with the %s flow\n",
		name, g.NumPIs(), g.NumPOs(), g.NumAnds(), g.MaxLevel(), ev.Name())
	if !*noTune {
		tuned, rep, err := anneal.AutoTune(g, ev, p)
		if err != nil {
			fatal(err)
		}
		p = tuned
		if rep.PilotIterations > 0 {
			fmt.Println(rep)
		}
	}
	res, err := anneal.Run(g, ev, p)
	if err != nil {
		fatal(err)
	}
	if *verbose {
		for _, s := range res.History {
			mark := " "
			if s.Accepted {
				mark = "*"
			}
			fmt.Printf("%s iter %3d  %-12s cost %.4f  ands %4d  lev %3d\n",
				mark, s.Iter, s.Recipe, s.Cost, s.Ands, s.Levels)
		}
	}
	fmt.Printf("accepted %d/%d moves; move %v/iter, eval %v/iter (initial eval %v)\n",
		res.Accepted, res.TotalSteps(), res.PerIterationMove(), res.PerIterationEval(),
		res.InitialEvalTime.Round(time.Microsecond))
	fmt.Printf("oracle: %d evals (%d speculative), cache %d hits / %d misses (%.0f%% hit rate)\n",
		res.Evals, res.SpeculativeEvals, res.CacheHits, res.CacheMisses, 100*res.CacheHitRate())
	if len(res.Chains) > 1 {
		for _, c := range res.Chains {
			fmt.Printf("  chain %d (seed %d): best cost %.4f, accepted %d\n",
				c.Chain, c.Seed, c.BestCost, c.Accepted)
		}
	}
	fmt.Printf("best (by %s cost): %d nodes, %d levels\n",
		ev.Name(), res.Best.NumAnds(), res.Best.MaxLevel())

	// Always report final ground-truth quality regardless of flow.
	var pool signoff.Pool
	sr, st, err := pool.Evaluate(res.Best, lib)
	if err != nil {
		fatal(err)
	}
	st.Release()
	s0, st, err := pool.Evaluate(g, lib)
	if err != nil {
		fatal(err)
	}
	st.Release()
	fmt.Printf("signoff: delay %.1f ps -> %.1f ps (%+.1f%%), area %.1f -> %.1f um2 (%+.1f%%)\n",
		s0.DelayPS, sr.DelayPS, 100*(sr.DelayPS-s0.DelayPS)/s0.DelayPS,
		s0.AreaUM2, sr.AreaUM2, 100*(sr.AreaUM2-s0.AreaUM2)/s0.AreaUM2)

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := res.Best.WriteText(f); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *outPath)
	}
}

// runSweep executes the Fig. 5 hyperparameter grid — locally, or
// sharded across sweepd workers when addrs is non-empty — and prints
// every grid point plus the ground-truth Pareto front.
func runSweep(g *aig.AIG, name string, ev anneal.Evaluator, lib *cell.Library, base anneal.Params, addrs, hub string, preseed bool, store *eval.Store, autotune bool) {
	runSuiteEntries([]flows.SuiteEntry{{Name: name, G: g, Eval: ev}}, lib, base, addrs, hub, preseed, store, autotune)
}

// runSuite sweeps several benchmark designs through one session (one
// worker connection and one base transfer per design when sharded,
// instead of a reconnect per design).
func runSuite(designs []string, ev anneal.Evaluator, lib *cell.Library, base anneal.Params, addrs, hub string, preseed bool, store *eval.Store, autotune bool) {
	entries := make([]flows.SuiteEntry, 0, len(designs))
	for _, name := range designs {
		d, err := bench.ByName(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		entries = append(entries, flows.SuiteEntry{Name: d.Name, G: d.Build(), Eval: ev})
	}
	runSuiteEntries(entries, lib, base, addrs, hub, preseed, store, autotune)
}

// runSuiteEntries is the shared sweep driver of -sweep and -suite.
func runSuiteEntries(entries []flows.SuiteEntry, lib *cell.Library, base anneal.Params, addrs, hub string, preseed bool, store *eval.Store, autotune bool) {
	cfg := flows.DefaultSweep
	cfg.Base = base
	cfg.Store = store
	cfg.AutoTune = autotune
	grid := cfg.Grid()
	var (
		rs  []flows.SuiteResult
		st  *shard.Stats
		err error
	)
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name
	}
	t0 := time.Now()
	if hub != "" {
		fmt.Printf("sweeping %s with the %s flow: %d grid points x %d designs via hub %s\n",
			strings.Join(names, ","), entries[0].Eval.Name(), len(grid), len(entries), hub)
		rs, st, err = flows.SweepSuiteSharded(entries, lib, cfg, flows.ShardOptions{
			Hub:     hub,
			Preseed: preseed,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
	} else if addrs != "" {
		endpoints := strings.Split(addrs, ",")
		fmt.Printf("sweeping %s with the %s flow: %d grid points x %d designs over %d workers (one session)\n",
			strings.Join(names, ","), entries[0].Eval.Name(), len(grid), len(entries), len(endpoints))
		rs, st, err = flows.SweepSuiteSharded(entries, lib, cfg, flows.ShardOptions{
			Endpoints: endpoints,
			Preseed:   preseed,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
	} else {
		fmt.Printf("sweeping %s with the %s flow: %d grid points x %d designs on the local pool\n",
			strings.Join(names, ","), entries[0].Eval.Name(), len(grid), len(entries))
		rs, err = flows.SweepSuite(entries, lib, cfg)
	}
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(t0).Round(time.Millisecond)

	total := 0
	for _, r := range rs {
		if len(rs) > 1 {
			fmt.Printf("== %s ==\n", r.Name)
		}
		printFront(r.Points)
		total += len(r.Points)
	}
	fmt.Printf("%d points in %v\n", total, elapsed)
	if st != nil {
		fmt.Printf("transfers: base %dx (%d B), %d delta records (%d B); jobs %d (requeued %d, retried %d); workers lost %d\n",
			st.BaseSends, st.BaseBytes, st.DeltaRecords, st.DeltaBytes,
			st.JobSends, st.Requeues, st.Retries, st.WorkerLosses)
		if st.QueueDepth > 0 || st.Handoffs > 0 {
			fmt.Printf("hub: queued behind %d submissions; %d workers donated to concurrent sessions\n",
				st.QueueDepth, st.Handoffs)
		}
		fmt.Printf("merged cache: %d distinct structures from %d records (%d cross-worker duplicates)\n",
			st.MergedStructures(), st.CacheRecords, st.CacheDuplicates)
		if st.SeedPushes > 0 || st.PrefilterHits > 0 {
			fmt.Printf("preseed: %d pushes / %d records (%d B); %d evaluations skipped, %d records rejected\n",
				st.SeedPushes, st.SeedRecords, st.SeedBytes, st.PrefilterHits, st.PrefilterRejected)
		}
		if st.StoreLoaded > 0 || st.StoreFlushed > 0 {
			fmt.Printf("store: warm-started from %d records, flushed %d new\n", st.StoreLoaded, st.StoreFlushed)
		}
	}
}

// printFront prints one sweep's grid points with Pareto markers.
func printFront(pts []flows.SweepPoint) {
	front := flows.Front(pts)
	onFront := make(map[int]bool, len(front))
	for _, fp := range front {
		onFront[fp.Tag] = true
	}
	fmt.Println("  w_delay  w_area  decay     true delay     true area   pareto")
	for i, p := range pts {
		mark := ""
		if onFront[i] {
			mark = "*"
		}
		fmt.Printf("  %7g %7g %6g  %10.1f ps  %10.1f um2  %s\n",
			p.DelayWeight, p.AreaWeight, p.Decay, p.TrueDelayPS, p.TrueAreaUM2, mark)
	}
	fmt.Printf("  %d points; %d on the Pareto front\n", len(pts), len(front))
}

func loadInput(design, in string) (*aig.AIG, string, error) {
	switch {
	case design != "" && in != "":
		return nil, "", fmt.Errorf("aigopt: -design and -in are mutually exclusive")
	case design != "":
		d, err := bench.ByName(design)
		if err != nil {
			return nil, "", err
		}
		return d.Build(), d.Name, nil
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		g, err := aig.Parse(f)
		if err != nil {
			return nil, "", err
		}
		return g, in, nil
	default:
		return nil, "", fmt.Errorf("aigopt: one of -design or -in is required")
	}
}

func makeEvaluator(flow string, lib *cell.Library, modelPath, areaPath string, workers int) (anneal.Evaluator, error) {
	switch flow {
	case "baseline":
		return flows.Proxy{}, nil
	case "ground-truth":
		gt := flows.NewGroundTruth(lib)
		gt.Workers = workers
		return gt, nil
	case "ml":
		if modelPath == "" {
			return nil, fmt.Errorf("aigopt: -flow ml requires -model")
		}
		dm, err := loadModel(modelPath)
		if err != nil {
			return nil, err
		}
		ml := &flows.ML{DelayModel: dm, Workers: workers}
		if areaPath != "" {
			am, err := loadModel(areaPath)
			if err != nil {
				return nil, err
			}
			ml.AreaModel = am
		}
		return ml, nil
	default:
		return nil, fmt.Errorf("aigopt: unknown flow %q", flow)
	}
}

func loadModel(path string) (*gbdt.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gbdt.Load(f)
}

// writeMemProfile dumps the allocation profile at exit, after a GC so
// the heap snapshot reflects live retention rather than float.
func writeMemProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
