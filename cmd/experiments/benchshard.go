package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/eval"
	"aigtimer/internal/flows"
	"aigtimer/internal/shard"
)

// shardBenchRun is one measured sharded-sweep configuration in the
// BENCH_shard.json artifact.
type shardBenchRun struct {
	Name              string  `json:"name"`
	Workers           int     `json:"workers"`
	Preseed           bool    `json:"preseed"`
	WallSeconds       float64 `json:"wall_seconds"`
	BytesSent         int64   `json:"bytes_sent"`
	BytesReceived     int64   `json:"bytes_received"`
	BaseBytes         int64   `json:"base_bytes"`
	DeltaBytes        int64   `json:"delta_bytes"`
	SeedRecords       int     `json:"seed_records"`
	SeedBytes         int64   `json:"seed_bytes"`
	CacheRecords      int     `json:"cache_records"`
	CacheDuplicates   int     `json:"cache_duplicates"`
	PrefilterHits     int64   `json:"prefilter_hits"`
	PrefilterRejected int64   `json:"prefilter_rejected"`
	PrefilterHitRate  float64 `json:"prefilter_hit_rate"`
	StoreLoaded       int     `json:"store_loaded,omitempty"`
	StoreFlushed      int     `json:"store_flushed,omitempty"`
}

// shardBenchReport is the schema of the BENCH_shard.json CI artifact:
// the sec2b suite swept through one two-worker shard session under four
// configurations — preseeding off, preseeding on, and a cold-then-warm
// pair against a persistent evaluation store — with identical results
// asserted across all of them, and transport, duplicate-evaluation, and
// store accounting recorded.
type shardBenchReport struct {
	Design           string          `json:"design"`
	GridPoints       int             `json:"grid_points"`
	Entries          int             `json:"entries"`
	Iterations       int             `json:"iterations"`
	Seed             int64           `json:"seed"`
	Runs             []shardBenchRun `json:"runs"`
	ResultsIdentical bool            `json:"results_identical"`
	DuplicatesSaved  int             `json:"duplicates_saved"`
}

// runBenchShard measures the sharded sec2b suite over two in-process
// workers (the production runner over net.Pipe transports — no
// daemons to manage, so CI can run it hermetically) in four
// configurations: preseeding off, preseeding on, and the same sweep
// cold then warm against a persistent store (the warm run starts from
// the records the cold run flushed, so its duplicate evaluations and
// ground-truth oracle calls collapse into prefilter hits). It verifies
// all four runs are byte-identical per entry and appends the numbers to
// the cross-PR perf trajectory.
func runBenchShard(cfg config) error {
	const workers = 2
	g := bench.Multiplier(5)
	lib := cell.Builtin()
	sc := sweepConfig(cfg)
	entries := []flows.SuiteEntry{
		{Name: "baseline", G: g, Eval: flows.Proxy{}},
		{Name: "ground-truth", G: g, Eval: flows.NewGroundTruth(lib)},
	}

	report := shardBenchReport{
		Design:     "MUL5 (sec2b)",
		GridPoints: len(sc.Grid()),
		Entries:    len(entries),
		Iterations: sc.Base.Iterations,
		Seed:       sc.Base.Seed,
	}

	var canon [][]byte
	runOnce := func(name string, preseed bool, store *eval.Store) error {
		conns := make([]io.ReadWriteCloser, workers)
		var wg sync.WaitGroup
		for i := range conns {
			c, w := net.Pipe()
			conns[i] = c
			wg.Add(1)
			go func(w io.ReadWriteCloser) {
				defer wg.Done()
				shard.Serve(w, flows.NewShardRunner())
			}(w)
		}
		rc := sc
		rc.Store = store
		t0 := time.Now()
		rs, st, err := flows.SweepSuiteSharded(entries, lib, rc, flows.ShardOptions{
			Conns: conns, Preseed: preseed,
		})
		if err != nil {
			return fmt.Errorf("bench-shard: %s: %w", name, err)
		}
		wall := time.Since(t0)
		wg.Wait()

		var cb []byte
		for _, r := range rs {
			cb = append(cb, flows.CanonicalizeSweep(r.Points)...)
		}
		canon = append(canon, cb)

		hits, misses := st.PrefilterHits, int64(st.CacheRecords)
		rate := 0.0
		if hits+misses > 0 {
			// Of everything scored or skipped cluster-wide, the fraction
			// the prefilter answered for free.
			rate = float64(hits) / float64(hits+misses)
		}
		report.Runs = append(report.Runs, shardBenchRun{
			Name: name, Workers: workers, Preseed: preseed || store != nil,
			WallSeconds:   wall.Seconds(),
			BytesSent:     st.BytesSent,
			BytesReceived: st.BytesReceived,
			BaseBytes:     st.BaseBytes,
			DeltaBytes:    st.DeltaBytes,
			SeedRecords:   st.SeedRecords,
			SeedBytes:     st.SeedBytes,
			CacheRecords:  st.CacheRecords, CacheDuplicates: st.CacheDuplicates,
			PrefilterHits: st.PrefilterHits, PrefilterRejected: st.PrefilterRejected,
			PrefilterHitRate: rate,
			StoreLoaded:      st.StoreLoaded, StoreFlushed: st.StoreFlushed,
		})
		fmt.Printf("%-26s %7.2fs wall  sent %7d B (base %d, seeds %d)  recv %7d B (delta %d)  records %4d (dup %3d)  prefilter hits %4d (%.0f%%)",
			name, wall.Seconds(), st.BytesSent, st.BaseBytes, st.SeedBytes,
			st.BytesReceived, st.DeltaBytes, st.CacheRecords, st.CacheDuplicates,
			st.PrefilterHits, 100*rate)
		if store != nil {
			fmt.Printf("  store loaded %d / flushed %d", st.StoreLoaded, st.StoreFlushed)
		}
		fmt.Println()
		return nil
	}

	if err := runOnce("shard-sec2b-preseed-off", false, nil); err != nil {
		return err
	}
	if err := runOnce("shard-sec2b-preseed-on", true, nil); err != nil {
		return err
	}

	// Cold-then-warm store pair: the cold run starts from an empty store
	// file and flushes what it merges; the warm run reopens the same file
	// — a fresh coordinator, as after a crash or restart — and preseeds
	// session zero from it.
	storePath := cfg.store
	if storePath == "" {
		dir, err := os.MkdirTemp("", "bench-shard-store")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		storePath = filepath.Join(dir, "sec2b.store")
	} else if err := os.MkdirAll(filepath.Dir(storePath), 0o755); err != nil {
		return err
	}
	os.Remove(storePath) // cold means cold, even against a kept path
	for _, phase := range []string{"shard-sec2b-store-cold", "shard-sec2b-store-warm"} {
		st, err := eval.OpenStore(storePath)
		if err != nil {
			return fmt.Errorf("bench-shard: opening store: %w", err)
		}
		runErr := runOnce(phase, true, st)
		if cerr := st.Close(); runErr == nil && cerr != nil {
			runErr = fmt.Errorf("bench-shard: closing store: %w", cerr)
		}
		if runErr != nil {
			return runErr
		}
	}
	if cfg.store != "" {
		fmt.Printf("(kept store %s)\n", storePath)
	}

	report.ResultsIdentical = true
	for _, cb := range canon[1:] {
		if !bytes.Equal(canon[0], cb) {
			report.ResultsIdentical = false
		}
	}
	report.DuplicatesSaved = report.Runs[0].CacheDuplicates - report.Runs[1].CacheDuplicates
	warm := report.Runs[len(report.Runs)-1]
	fmt.Printf("preseeding saved %d duplicate evaluations; warm start loaded %d records (%.0f%% prefilter hit rate); results identical: %v\n",
		report.DuplicatesSaved, warm.StoreLoaded, 100*warm.PrefilterHitRate, report.ResultsIdentical)
	if !report.ResultsIdentical {
		return fmt.Errorf("bench-shard: preseeding or the store changed sweep results")
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	dir := cfg.outDir
	if dir == "" {
		dir = "."
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := dir + "/BENCH_shard.json"
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("(wrote %s)\n", path)
	if cfg.append != "" {
		if err := appendShardTrajectory(cfg.append, report); err != nil {
			return err
		}
		fmt.Printf("(appended to %s)\n", cfg.append)
	}
	return nil
}

// shardTrajectoryRecord is the compact JSONL form of one bench-shard
// run for perf/trajectory.jsonl (the cross-PR record shares the file
// with the anneal bench; the config field namespaces the schema).
type shardTrajectoryRecord struct {
	Date             string  `json:"date"`
	Design           string  `json:"design"`
	NumCPU           int     `json:"num_cpu"`
	CPUModel         string  `json:"cpu_model"`
	Config           string  `json:"config"`
	Workers          int     `json:"workers"`
	BytesSent        int64   `json:"bytes_sent"`
	BytesReceived    int64   `json:"bytes_received"`
	SeedBytes        int64   `json:"seed_bytes"`
	CacheRecords     int     `json:"cache_records"`
	CacheDuplicates  int     `json:"cache_duplicates"`
	PrefilterHits    int64   `json:"prefilter_hits"`
	PrefilterHitRate float64 `json:"prefilter_hit_rate"`
	StoreLoaded      int     `json:"store_loaded,omitempty"`
	StoreFlushed     int     `json:"store_flushed,omitempty"`
	WallSeconds      float64 `json:"wall_seconds"`
}

// appendShardTrajectory appends one JSONL record per measured run.
func appendShardTrajectory(path string, report shardBenchReport) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	defer f.Close()
	date := time.Now().UTC().Format("2006-01-02")
	model := cpuModel()
	enc := json.NewEncoder(f)
	for _, r := range report.Runs {
		rec := shardTrajectoryRecord{
			Date: date, Design: report.Design, NumCPU: runtime.NumCPU(), CPUModel: model,
			Config: r.Name, Workers: r.Workers,
			BytesSent: r.BytesSent, BytesReceived: r.BytesReceived, SeedBytes: r.SeedBytes,
			CacheRecords: r.CacheRecords, CacheDuplicates: r.CacheDuplicates,
			PrefilterHits: r.PrefilterHits, PrefilterHitRate: r.PrefilterHitRate,
			StoreLoaded: r.StoreLoaded, StoreFlushed: r.StoreFlushed,
			WallSeconds: r.WallSeconds,
		}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}
