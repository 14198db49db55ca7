package flows

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/cell"
	"aigtimer/internal/eval"
	"aigtimer/internal/shard"
)

// SuiteEntry is one sweep of a suite run: a display name (used in
// errors and reports), the base graph, and the evaluator guiding its
// sweep. Entries are independent sweeps — the same grid is run for each
// — that share one execution session: one worker pool locally, or one
// shard-protocol session (worker startup, connection, and base
// transfers paid once) when sharded. Several entries may share a graph
// (the same design swept under different evaluators, as in the §II-B
// study) or an evaluator (a benchmark suite swept under one flow).
type SuiteEntry struct {
	Name string
	G    *aig.AIG
	Eval anneal.Evaluator
}

// SuiteResult is one entry's sweep outcome, in the entry order of the
// suite call.
type SuiteResult struct {
	Name   string
	Points []SweepPoint
}

// suiteJob is one unit of suite work: the entry it belongs to, its
// session-unique result slot (entry-major), and the grid point to run.
type suiteJob struct {
	Entry int
	Slot  int
	Point GridPoint
}

// suiteJobList flattens entries × grid into the canonical session job
// order — entry-major, grid order within an entry — shared by the local
// pool and the sharded driver, so both report results in the same
// slots whatever schedule executed them.
func suiteJobList(numEntries int, grid []GridPoint) []suiteJob {
	jobs := make([]suiteJob, 0, numEntries*len(grid))
	for e := 0; e < numEntries; e++ {
		for _, pt := range grid {
			jobs = append(jobs, suiteJob{Entry: e, Slot: len(jobs), Point: pt})
		}
	}
	return jobs
}

// SweepSuite runs the sweep grid for every entry on one local worker
// pool. Per entry the results are bit-identical to a standalone
// Sweep(entry.G, entry.Eval, lib, cfg): every entry gets its own
// evaluation stack (memo caches never mix metrics from different
// evaluators) and every grid point derives its seed from grid position,
// so sharing the pool changes scheduling, never values. Each point's
// ground-truth metrics come from RunPoint: from the run for entries
// guided by ground truth over lib, from a signoff of the winner for the
// rest. On failure the first error in suite job order is returned as a
// *SweepError carrying the entry name and grid coordinates.
func SweepSuite(entries []SuiteEntry, lib *cell.Library, cfg SweepConfig) ([]SuiteResult, error) {
	grid := cfg.Grid()
	if len(grid) == 0 {
		return nil, fmt.Errorf("flows: empty sweep grid")
	}
	if len(entries) == 0 {
		return nil, fmt.Errorf("flows: empty suite")
	}
	jobs := suiteJobList(len(entries), grid)
	workers := runtime.GOMAXPROCS(0)
	if workers > len(jobs) {
		workers = len(jobs)
	}
	gt := NewGroundTruth(lib)
	stacks := make([]anneal.Evaluator, len(entries))
	bases := make([]anneal.Params, len(entries))
	storeKeys := suiteStoreKeys(entries, cfg.Store)
	for e, ent := range entries {
		WarmRoot(ent.G)
		bases[e] = cfg.tunedBase(ent.G, ent.Eval)
		stacks[e] = NewSweepStack(ent.Eval, bases[e])
		// Store records enter behind the memo cache's prefilter: they may
		// only skip oracle calls whose graph they provably describe, so a
		// warm start never changes a result.
		if storeKeys[e] != nil {
			if c, ok := stacks[e].(*eval.Cached); ok {
				c.ImportRecords(cfg.Store.Records(*storeKeys[e]))
			}
		}
	}
	pts := make([]SweepPoint, len(jobs))
	errs := make([]error, len(jobs))
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ji := range work {
				j := jobs[ji]
				pts[j.Slot], errs[j.Slot] = RunPoint(entries[j.Entry].G, stacks[j.Entry], gt, bases[j.Entry], j.Point)
			}
		}()
	}
	for ji := range jobs {
		work <- ji
	}
	close(work)
	wg.Wait()
	for _, j := range jobs {
		if err := errs[j.Slot]; err != nil {
			return nil, &SweepError{Design: entries[j.Entry].Name, Point: j.Point, Total: len(grid), Err: err}
		}
	}
	flushSuiteStore(cfg.Store, storeKeys, stacks)
	return packSuite(entries, grid, func(slot int) SweepPoint { return pts[slot] }), nil
}

// suiteStoreKeys computes each entry's persistent-store key — the
// (base-graph hash, evaluator-spec hash) pair that scopes stored
// records to one design swept under one reconstructible evaluator, over
// the library a ground-truth entry scores with — or nil for entries
// whose evaluator has no wire spec (no stable cross-process identity to
// key records by) and when no store is configured. A sharded session
// derives the same keys from its wire config.
func suiteStoreKeys(entries []SuiteEntry, store *eval.Store) []*eval.StoreKey {
	keys := make([]*eval.StoreKey, len(entries))
	if store == nil {
		return keys
	}
	for e, ent := range entries {
		spec, err := evalSpecFor(ent.Eval)
		if err != nil {
			continue
		}
		var lib []byte
		if gt, ok := ent.Eval.(*GroundTruth); ok {
			if lib, err = libraryBytes(gt.Lib); err != nil {
				continue
			}
		}
		keys[e] = &eval.StoreKey{Design: ent.G.Hash(), Spec: spec.StoreHash(lib)}
	}
	return keys
}

// flushSuiteStore appends each cached stack's locally evaluated records
// to the store: ExportSince(0) covers exactly what this run computed,
// because records adopted from store imports never enter the insert
// log. Durability is best-effort — the sweep's results are already in
// hand, so a failing flush costs future warm starts, nothing else.
func flushSuiteStore(store *eval.Store, keys []*eval.StoreKey, stacks []anneal.Evaluator) {
	if store == nil {
		return
	}
	for e, key := range keys {
		if key == nil {
			continue
		}
		if c, ok := stacks[e].(*eval.Cached); ok {
			if recs, _ := c.ExportSince(0); len(recs) > 0 {
				store.Append(*key, recs)
			}
		}
	}
}

// SweepSuiteSharded runs the sweep grid for every entry across sweepd
// worker processes through one shard-protocol session: each worker is
// connected and configured once, each distinct base graph crosses the
// wire once per worker, and all entries' grid points share the session's
// work-stealing schedule. Per entry the returned trajectories and
// ground-truth metrics are identical to a standalone SweepSharded, a
// local Sweep, or a SweepSuite of the same configuration. The full
// canonical forms (AppendCanonical) are byte-identical too when
// cfg.AutoTune is off, or when every entry tunes like the first: the
// coordinator tunes the cost knobs once, against entries[0], where
// SweepSuite tunes each entry, so a later entry may run with other
// batch bounds and report other Evals and SpeculativeEvals counts.
//
// Workers rebuild ground truth over the session's one library, so an
// entry guided by ground truth over another library than lib is refused
// by name rather than silently scored under lib.
//
// With opts.Preseed the coordinator pushes each entry's merged cache
// records back out to workers mid-sweep, so structures one worker
// already scored are not re-evaluated by its peers; preseeding is
// value-transparent (see shard.Options.Preseed) and its effect shows up
// in the returned Stats (SeedRecords, PrefilterHits, and a lower
// CacheDuplicates), never in the results.
//
// With opts.Hub (or opts.HubConn) the suite is instead submitted to a
// resident sweephub coordinator, which queues it behind other clients'
// submissions and executes it over its own elastic fleet; results and
// the identity contract above are unchanged.
func SweepSuiteSharded(entries []SuiteEntry, lib *cell.Library, cfg SweepConfig, opts ShardOptions) ([]SuiteResult, *shard.Stats, error) {
	grid := cfg.Grid()
	if len(grid) == 0 {
		return nil, nil, fmt.Errorf("flows: empty sweep grid")
	}
	if len(entries) == 0 {
		return nil, nil, fmt.Errorf("flows: empty suite")
	}
	if cfg.Base.Recipes != nil {
		return nil, nil, fmt.Errorf("flows: sharded sweep requires the default recipe catalog (Recipes must be nil)")
	}
	var bases []*aig.AIG
	baseOf := make(map[*aig.AIG]int)
	specs := make([]shard.EntrySpec, len(entries))
	for e, ent := range entries {
		spec, err := evalSpecFor(ent.Eval)
		if err != nil {
			return nil, nil, fmt.Errorf("flows: suite entry %q: %w", ent.Name, err)
		}
		if gt, ok := ent.Eval.(*GroundTruth); ok && gt.Lib != lib {
			return nil, nil, fmt.Errorf("flows: suite entry %q: ground truth over another library than the sweep's cannot be sharded", ent.Name)
		}
		bi, ok := baseOf[ent.G]
		if !ok {
			bi = len(bases)
			bases = append(bases, ent.G)
			baseOf[ent.G] = bi
		}
		specs[e] = shard.EntrySpec{Base: bi, Eval: spec}
	}
	libBytes, err := libraryBytes(lib)
	if err != nil {
		return nil, nil, err
	}
	// The shard wire carries one resolved parameter set for the whole
	// session, so knobs are pinned here: the auto batch size like always,
	// and — when the config asks for it — the autotuned cost knobs,
	// measured once by the coordinator against the first entry and then
	// identical on every worker. Later entries running off-tune costs
	// time and may change their Evals/SpeculativeEvals counts, never
	// their trajectories or ground-truth metrics.
	base := cfg.tunedBase(entries[0].G, entries[0].Eval)
	base.BatchSize = anneal.EffectiveBatchSize(base.BatchSize)
	rc := shard.RunConfig{Base: base, Entries: specs, Library: libBytes}
	sj := suiteJobList(len(entries), grid)
	jobs := make([]shard.JobSpec, len(sj))
	for i, j := range sj {
		jobs[i] = shard.JobSpec{
			Entry: j.Entry, Index: j.Slot,
			DelayWeight: j.Point.DelayWeight, AreaWeight: j.Point.AreaWeight, Decay: j.Point.Decay,
			SeedOffset: j.Point.SeedOffset,
		}
	}
	var results []shard.JobResult
	var st *shard.Stats
	if opts.HubConn != nil || opts.Hub != "" {
		// Hub mode: the sweep is one submission to a resident coordinator
		// that owns the fleet (and any store — cfg.Store stays local).
		var hc *shard.HubClient
		if opts.HubConn != nil {
			hc, err = shard.NewHubClient(opts.HubConn, "flows-client")
		} else {
			hc, err = shard.DialHub(opts.Hub, "flows-client", 10*time.Second)
		}
		if err != nil {
			return nil, nil, err
		}
		defer hc.Close()
		results, st, err = hc.Submit(bases, rc, jobs)
	} else {
		results, st, err = shard.Run(bases, rc, jobs, shard.Options{
			Conns: opts.Conns, Endpoints: opts.Endpoints,
			Preseed: opts.Preseed, Store: cfg.Store,
			OnJobDone: opts.OnJobDone, Logf: opts.Logf,
		})
	}
	if err != nil {
		var jfe *shard.JobFailedError
		if errors.As(err, &jfe) {
			j := sj[jfe.Job.Index]
			return nil, st, &SweepError{
				Design: entries[j.Entry].Name, Point: j.Point, Total: len(grid),
				Err: fmt.Errorf("failed on %d workers: %s", jfe.Attempts, jfe.Msg),
			}
		}
		return nil, st, err
	}
	return packSuite(entries, grid, func(slot int) SweepPoint {
		jr := results[slot]
		pt := sj[slot].Point
		return SweepPoint{
			DelayWeight: pt.DelayWeight, AreaWeight: pt.AreaWeight, Decay: pt.Decay,
			Result: jr.Result, TrueDelayPS: jr.TrueDelayPS, TrueAreaUM2: jr.TrueAreaUM2,
		}
	}), st, nil
}

// packSuite groups per-slot sweep points back into entry order.
func packSuite(entries []SuiteEntry, grid []GridPoint, point func(slot int) SweepPoint) []SuiteResult {
	out := make([]SuiteResult, len(entries))
	for e := range entries {
		pts := make([]SweepPoint, len(grid))
		for i := range grid {
			pts[i] = point(e*len(grid) + i)
		}
		out[e] = SuiteResult{Name: entries[e].Name, Points: pts}
	}
	return out
}
