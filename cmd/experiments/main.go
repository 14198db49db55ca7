// Command experiments regenerates every table and figure of the paper's
// evaluation. Each subcommand corresponds to one artifact (see DESIGN.md's
// per-experiment index); "all" runs the full set. Default workload sizes
// are chosen for a single-core machine and can be scaled to the paper's
// 40,000-variant regime with -n.
//
// Usage:
//
//	experiments [flags] <fig1|table1|fig2|sec2b|table3|gnncmp|fig5|table4|ablate|bench-anneal|bench-shard|all>
//
// Outputs are printed as aligned text tables plus CSV blocks that can be
// redirected for plotting.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"
)

type config struct {
	n        int // variants per design for dataset experiments
	fig1N    int // variants for the Fig. 1 scatter
	saIters  int // annealing iterations per optimization run
	fig2Iter int // iterations measured per flow in Fig. 2 / Table IV
	batch    int // annealing batch size (0 = auto)
	chains   int // parallel annealing chains per run
	seed     int64
	design   string // test design for Fig. 5
	shard    string // comma-separated sweepd addresses for sweep experiments
	preseed  bool   // push merged cache records to shard workers mid-sweep
	store    string // bench-shard persistent store path ("" = a temp file)
	outDir   string
	append   string // perf-trajectory JSONL to append bench results to
}

func main() {
	cfg := config{}
	flag.IntVar(&cfg.n, "n", 150, "AIG variants per design for model training (paper: 40000)")
	flag.IntVar(&cfg.fig1N, "fig1-n", 250, "AIG variants for the Fig. 1 scatter")
	flag.IntVar(&cfg.saIters, "sa-iters", 60, "simulated annealing iterations per run")
	flag.IntVar(&cfg.fig2Iter, "runtime-iters", 8, "iterations timed per flow for Fig. 2 / Table IV")
	flag.IntVar(&cfg.batch, "batch", 0, "annealing batch size (0 = auto; trajectories are batch-invariant)")
	flag.IntVar(&cfg.chains, "chains", 1, "parallel annealing chains per optimization run")
	flag.Int64Var(&cfg.seed, "seed", 1, "random seed")
	flag.StringVar(&cfg.design, "design", "EX54", "test design for Fig. 5")
	flag.StringVar(&cfg.shard, "shard", "", "comma-separated sweepd worker addresses; distributes the sweep experiments (sec2b, fig5) across them — all flows of one experiment share one session per worker")
	flag.BoolVar(&cfg.preseed, "preseed", true, "push merged cache records to shard workers mid-sweep (recovers cross-worker duplicate evaluations; results unchanged)")
	flag.StringVar(&cfg.store, "store", "", "bench-shard: persistent evaluation store path for the cold/warm comparison (default: a temp file, removed afterwards)")
	flag.StringVar(&cfg.outDir, "out", "", "directory for CSV artifacts (default: stdout only)")
	flag.StringVar(&cfg.append, "append", "", "JSONL file to append a compact bench-anneal record to (the cross-PR perf trajectory)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: experiments [flags] <fig1|table1|fig2|sec2b|table3|gnncmp|fig5|table4|ablate|bench-anneal|bench-shard|all>")
		os.Exit(2)
	}
	cmd := flag.Arg(0)

	run := func(name string, f func(config) error) {
		fmt.Printf("\n================ %s ================\n", name)
		t0 := time.Now()
		if err := f(cfg); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s completed in %v]\n", name, time.Since(t0).Round(time.Millisecond))
	}

	switch cmd {
	case "fig1":
		run("fig1", runFig1)
	case "table1":
		run("table1", runTable1)
	case "fig2":
		run("fig2", runFig2)
	case "sec2b":
		run("sec2b", runSec2B)
	case "table3":
		run("table3", runTable3)
	case "gnncmp":
		run("gnncmp", runGNNCmp)
	case "fig5":
		run("fig5", runFig5)
	case "table4":
		run("table4", runTable4)
	case "ablate":
		run("ablate", runAblate)
	case "bench-anneal":
		run("bench-anneal", runBenchAnneal)
	case "bench-shard":
		run("bench-shard", runBenchShard)
	case "all":
		run("fig1", runFig1)
		run("table1", runTable1)
		run("fig2", runFig2)
		run("sec2b", runSec2B)
		run("table3", runTable3)
		run("gnncmp", runGNNCmp)
		run("fig5", runFig5)
		run("table4", runTable4)
		run("ablate", runAblate)
	default:
		fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q\n", cmd)
		os.Exit(2)
	}
}

// writeCSV optionally persists a CSV artifact.
func writeCSV(cfg config, name, content string) error {
	if cfg.outDir == "" {
		return nil
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	path := cfg.outDir + "/" + name
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n", path)
	return nil
}
