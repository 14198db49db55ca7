// Command distributedsweep is a runnable walkthrough of the sharded
// hyperparameter sweep: it starts two worker sessions — the same
// shard.Serve + flows.NewShardRunner pairing cmd/sweepd runs, here on
// in-process TCP listeners so the example is self-contained — sweeps a
// benchmark design across them, and verifies the distributed results
// against a local sweep byte for byte.
//
// In production the workers are sweepd daemons on other machines:
//
//	worker1$ sweepd -listen 0.0.0.0:9610
//	worker2$ sweepd -listen 0.0.0.0:9610
//	coord$   aigopt -design EX08 -flow ground-truth -sweep \
//	             -shard worker1:9610,worker2:9610
//
// Everything this example prints — the byte-identity check, the
// base-once/delta-after transfer split, the merged cache — holds
// unchanged in that setting; the transport is the same, only the
// endpoints differ.
package main

import (
	"bytes"
	"fmt"
	"log"
	"net"

	"aigtimer/internal/anneal"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/flows"
	"aigtimer/internal/shard"
)

func main() {
	// The design under optimization and the sweep grid: 2 area weights
	// x 2 decay rates, annealed briefly so the example runs in seconds.
	d, err := bench.ByName("EX08")
	if err != nil {
		log.Fatal(err)
	}
	g := d.Build()
	lib := cell.Builtin()
	cfg := flows.SweepConfig{
		Base: anneal.Params{
			Iterations: 20, StartTemp: 0.05, DecayRate: 0.97, Seed: 1,
		},
		DelayWeights: []float64{1},
		AreaWeights:  []float64{0.3, 1.0},
		DecayRates:   []float64{0.95, 0.975},
	}
	fmt.Printf("design %s: %d nodes, %d levels; %d grid points\n",
		d.Name, g.NumAnds(), g.MaxLevel(), len(cfg.Grid()))

	// Start two workers. Each accepted connection becomes one session
	// with its own evaluation stack (the memo cache over the evaluator) —
	// exactly what cmd/sweepd does per connection.
	var addrs []string
	for w := 0; w < 2; w++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		addrs = append(addrs, ln.Addr().String())
		go func(ln net.Listener) {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go shard.Serve(conn, flows.NewShardRunner())
			}
		}(ln)
	}
	fmt.Printf("workers listening on %v\n", addrs)

	// The reference: the same sweep on the local worker pool.
	ev := flows.NewGroundTruth(lib)
	local, err := flows.Sweep(g, ev, lib, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The distributed run. The coordinator ships the sweep config and
	// the base AIG once per worker, then streams grid points to idle
	// workers and merges results in grid order. Preseed pushes each
	// worker's merged cache records back out to its peers mid-sweep so
	// structures one worker scored are not re-evaluated elsewhere —
	// value-transparently, as the identity check below demonstrates.
	pts, st, err := flows.SweepSharded(g, ev, lib, cfg, flows.ShardOptions{
		Endpoints: addrs,
		Preseed:   true,
		Logf:      log.Printf, // surfaces retries and worker losses, if any
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\n  w_delay  w_area  decay     true delay     true area")
	for _, p := range pts {
		fmt.Printf("  %7g %7g %6g  %10.1f ps  %10.1f um2\n",
			p.DelayWeight, p.AreaWeight, p.Decay, p.TrueDelayPS, p.TrueAreaUM2)
	}
	front := flows.Front(pts)
	fmt.Printf("Pareto front: %d of %d points\n", len(front), len(pts))

	// The two guarantees the sharded driver makes:
	//
	// 1. Byte identity: every deterministic field of every point equals
	//    the local sweep's (AppendCanonical defines the compared set).
	fmt.Printf("\nbyte-identical to the local sweep: %v\n",
		bytes.Equal(flows.CanonicalizeSweep(local), flows.CanonicalizeSweep(pts)))

	// 2. Warm handoff: the base graph crossed the wire once per worker;
	//    all returned graphs traveled as aig.EncodeDelta records.
	fmt.Printf("transfers: base %d× (%d B), %d delta records (%d B)\n",
		st.BaseSends, st.BaseBytes, st.DeltaRecords, st.DeltaBytes)
	fmt.Printf("scheduling: %d jobs over %d workers", st.JobSends, len(st.Workers))
	for _, w := range st.Workers {
		fmt.Printf("  [%s: %d]", w.Name, w.Jobs)
	}
	fmt.Println()
	fmt.Printf("merged memo cache: %d distinct structures, %d cross-worker duplicates\n",
		st.MergedStructures(), st.CacheDuplicates)
	fmt.Printf("preseed: %d records pushed (%d B), %d evaluations skipped\n",
		st.SeedRecords, st.SeedBytes, st.PrefilterHits)
}
