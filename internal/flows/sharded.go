package flows

import (
	"bytes"
	"fmt"
	"io"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/cell"
	"aigtimer/internal/eval"
	"aigtimer/internal/gbdt"
	"aigtimer/internal/shard"
)

// ShardOptions selects the worker fleet of a sharded sweep: TCP
// endpoints of cmd/sweepd daemons, pre-established transports (tests,
// in-process workers), or — instead of a fleet — a resident sweephub
// that owns its own fleet (Hub/HubConn).
type ShardOptions struct {
	Endpoints []string
	Conns     []io.ReadWriteCloser
	// Hub, when set, submits the sweep to a resident cmd/sweephub
	// coordinator at this address instead of running a one-shot session
	// over Endpoints/Conns. The hub owns the worker fleet, the scheduling,
	// and any persistent store (SweepConfig.Store is ignored — warm starts
	// are the hub's); results follow the same identity contract as a
	// one-shot session (see SweepSuiteSharded).
	Hub string
	// HubConn is Hub with an established transport (tests, in-process
	// hubs): the submission travels over this connection. Takes
	// precedence over Hub.
	HubConn io.ReadWriteCloser
	// Preseed pushes merged cache records back out to workers mid-sweep
	// so structures one worker scored are not re-evaluated by its peers;
	// value-transparent (results are byte-identical either way), see
	// shard.Options.Preseed.
	Preseed bool
	// OnJobDone, when set, is invoked as each grid point's result is
	// merged (session job index, worker name) — a progress hook; see
	// shard.Options.OnJobDone.
	OnJobDone func(jobIndex int, worker string)
	// Logf, when set, receives scheduling and failure events.
	Logf func(format string, args ...any)
}

// SweepSharded is Sweep scaled out across worker processes: the same
// grid, the same per-point annealing and ground-truth metrics,
// executed by sweepd workers instead of local goroutines. For a fixed
// SweepConfig the returned points are bit-identical to Sweep's on every
// deterministic field (see AppendCanonical) — grid points are seeded by
// grid position and every evaluation layer is value-transparent, so
// placement, retries, worker count, and preseeding never change
// results. The base AIG is shipped once per worker; every graph coming
// back crosses the wire as an aig.EncodeDelta record against it (see
// the shard package).
//
// The guiding evaluator must be one of this package's shippable kinds —
// Proxy, *GroundTruth, or *ML (models are serialized along) — and
// cfg.Base.Recipes must be nil (the full catalog), since recipe
// closures cannot cross a process boundary. BatchSize is pinned to its
// effective value before shipping so eval counters agree across
// heterogeneous worker machines.
//
// The returned Stats carry the transfer accounting (base vs delta
// bytes), retry/work-stealing activity, and the cluster-wide merged
// memo cache. SweepSharded is the single-entry case of
// SweepSuiteSharded, which sweeps several designs and/or evaluators
// through one worker session.
func SweepSharded(g0 *aig.AIG, ev anneal.Evaluator, lib *cell.Library, cfg SweepConfig, opts ShardOptions) ([]SweepPoint, *shard.Stats, error) {
	rs, st, err := SweepSuiteSharded([]SuiteEntry{{G: g0, Eval: ev}}, lib, cfg, opts)
	if err != nil {
		return nil, st, err
	}
	return rs[0].Points, st, nil
}

// libraryBytes serializes a non-builtin library for the wire (nil for
// the builtin, which workers reconstruct locally).
func libraryBytes(lib *cell.Library) ([]byte, error) {
	if lib == cell.Builtin() {
		return nil, nil
	}
	var buf bytes.Buffer
	if err := cell.WriteLibrary(&buf, lib); err != nil {
		return nil, fmt.Errorf("flows: serializing library: %w", err)
	}
	return buf.Bytes(), nil
}

// evalSpecFor maps a guiding evaluator onto the wire spec workers
// reconstruct it from. Only this package's evaluators have a wire form;
// arbitrary user evaluators cannot cross a process boundary.
func evalSpecFor(ev anneal.Evaluator) (shard.EvalSpec, error) {
	switch e := ev.(type) {
	case Proxy:
		return shard.EvalSpec{Kind: "baseline"}, nil
	case *GroundTruth:
		// The worker rebuilds the evaluator over the shipped library, so
		// nothing else travels.
		return shard.EvalSpec{Kind: "ground-truth"}, nil
	case *ML:
		var spec shard.EvalSpec
		spec.Kind = "ml"
		spec.AreaPerNode = e.AreaPerNode
		var buf bytes.Buffer
		if e.DelayModel == nil {
			return shard.EvalSpec{}, fmt.Errorf("flows: ML evaluator has no delay model")
		}
		if err := e.DelayModel.Save(&buf); err != nil {
			return shard.EvalSpec{}, fmt.Errorf("flows: serializing delay model: %w", err)
		}
		spec.DelayModel = append([]byte(nil), buf.Bytes()...)
		if e.AreaModel != nil {
			buf.Reset()
			if err := e.AreaModel.Save(&buf); err != nil {
				return shard.EvalSpec{}, fmt.Errorf("flows: serializing area model: %w", err)
			}
			spec.AreaModel = append([]byte(nil), buf.Bytes()...)
		}
		return spec, nil
	default:
		return shard.EvalSpec{}, fmt.Errorf("flows: evaluator %s (%T) cannot be shipped to shard workers", ev.Name(), e)
	}
}

// evaluatorFromSpec is evalSpecFor's worker-side inverse.
func evaluatorFromSpec(spec shard.EvalSpec, lib *cell.Library) (anneal.Evaluator, error) {
	switch spec.Kind {
	case "baseline":
		return Proxy{}, nil
	case "ground-truth":
		return NewGroundTruth(lib), nil
	case "ml":
		dm, err := gbdt.Load(bytes.NewReader(spec.DelayModel))
		if err != nil {
			return nil, fmt.Errorf("flows: decoding delay model: %w", err)
		}
		ml := &ML{DelayModel: dm, AreaPerNode: spec.AreaPerNode}
		if len(spec.AreaModel) > 0 {
			am, err := gbdt.Load(bytes.NewReader(spec.AreaModel))
			if err != nil {
				return nil, fmt.Errorf("flows: decoding area model: %w", err)
			}
			ml.AreaModel = am
		}
		return ml, nil
	default:
		return nil, fmt.Errorf("flows: unknown evaluator kind %q", spec.Kind)
	}
}

// shardRunner executes grid points for a sweepd worker session: the
// worker-process counterpart of the suite's goroutine pool, built from
// the same parts (NewSweepStack, RunPoint) so a job computes exactly
// what it would locally. Every session entry gets its own evaluation
// stack — caches never mix metrics from different guiding evaluators —
// and each stack persists across the session's jobs, the worker-local
// equivalent of the sweep-wide shared cache.
type shardRunner struct {
	base     anneal.Params
	stacks   []anneal.Evaluator
	gt       *GroundTruth
	warmed   map[*aig.AIG]bool
	cacheSeq []int // per-entry ExportSince high-water marks

	// Cross-session retention (nil pool = none): specHashes carries each
	// entry's store hash (its evaluator spec over the session's library)
	// from Configure, keys the per-entry
	// eval.StoreKey once the entry's base graph is known (its first job),
	// imported marks entries whose cache has been preseeded from the
	// pool.
	pool       *eval.RecordPool
	specHashes []uint64
	keys       []*eval.StoreKey
	imported   []bool
}

// NewShardRunner returns the production shard.Runner used by
// cmd/sweepd. Each worker session gets its own runner (its own
// evaluation stacks).
func NewShardRunner() shard.Runner { return &shardRunner{warmed: make(map[*aig.AIG]bool)} }

// NewShardRunnerPooled is NewShardRunner with cross-session record
// retention: on each entry's first job the runner preseeds the entry
// cache from pool — behind the ImportRecords prefilter, so a retained
// record may only skip an oracle call, never answer a lookup — and
// every record the session evaluates itself is contributed back. One
// pool, shared across all the sessions a sweepd process serves, is what
// lets a later session sweeping a familiar (design, evaluator) pair
// start warm without any coordinator-side store.
func NewShardRunnerPooled(pool *eval.RecordPool) shard.Runner {
	return &shardRunner{warmed: make(map[*aig.AIG]bool), pool: pool}
}

// Configure implements shard.Runner: it reconstructs the library and
// each entry's guiding evaluator from the wire config and builds one
// evaluation stack per entry.
func (r *shardRunner) Configure(cfg shard.RunConfig) error {
	lib := cell.Builtin()
	if len(cfg.Library) > 0 {
		l, err := cell.ParseLibrary(bytes.NewReader(cfg.Library))
		if err != nil {
			return fmt.Errorf("flows: decoding library: %w", err)
		}
		lib = l
	}
	r.base = cfg.Base
	r.warmed = make(map[*aig.AIG]bool)
	r.stacks = make([]anneal.Evaluator, len(cfg.Entries))
	r.cacheSeq = make([]int, len(cfg.Entries))
	r.specHashes = make([]uint64, len(cfg.Entries))
	r.keys = make([]*eval.StoreKey, len(cfg.Entries))
	r.imported = make([]bool, len(cfg.Entries))
	for i, e := range cfg.Entries {
		ev, err := evaluatorFromSpec(e.Eval, lib)
		if err != nil {
			return err
		}
		r.stacks[i] = NewSweepStack(ev, cfg.Base)
		r.specHashes[i] = e.Eval.StoreHash(cfg.Library)
	}
	r.gt = NewGroundTruth(lib)
	return nil
}

// Run implements shard.Runner.
func (r *shardRunner) Run(base *aig.AIG, job shard.JobSpec) (*shard.WorkResult, error) {
	if job.Entry < 0 || job.Entry >= len(r.stacks) {
		return nil, fmt.Errorf("flows: shard runner not configured for entry %d", job.Entry)
	}
	if !r.warmed[base] {
		WarmRoot(base)
		r.warmed[base] = true
	}
	// The entry's store key needs the base graph's hash, so retention
	// activates on the entry's first job: import what previous sessions
	// evaluated for this (design, evaluator) pair, behind the prefilter.
	if r.pool != nil && !r.imported[job.Entry] {
		r.imported[job.Entry] = true
		if c, ok := r.entryCache(job.Entry); ok {
			key := eval.StoreKey{Design: base.Hash(), Spec: r.specHashes[job.Entry]}
			r.keys[job.Entry] = &key
			if recs := r.pool.Get(key); len(recs) > 0 {
				c.ImportRecords(recs)
			}
		}
	}
	pt := GridPoint{
		Index:       job.Index,
		DelayWeight: job.DelayWeight, AreaWeight: job.AreaWeight, Decay: job.Decay,
		SeedOffset: job.SeedOffset,
	}
	sp, err := RunPoint(base, r.stacks[job.Entry], r.gt, r.base, pt)
	if err != nil {
		return nil, err
	}
	return &shard.WorkResult{Result: sp.Result, TrueDelayPS: sp.TrueDelayPS, TrueAreaUM2: sp.TrueAreaUM2}, nil
}

// CacheSnapshot implements shard.Runner, exporting one entry stack's
// memo records added since the previous call for coordinator-side
// merging. Records adopted from preseeds never appear (they enter the
// cache outside its insert log), so a worker only ever exports what it
// evaluated itself.
func (r *shardRunner) CacheSnapshot(entry int) []eval.CacheRecord {
	c, ok := r.entryCache(entry)
	if !ok {
		return nil
	}
	recs, seq := c.ExportSince(r.cacheSeq[entry])
	r.cacheSeq[entry] = seq
	if r.pool != nil && r.keys[entry] != nil && len(recs) > 0 {
		r.pool.Put(*r.keys[entry], recs)
	}
	return recs
}

// Preseed implements shard.Runner, installing coordinator-pushed merged
// records behind the entry cache's prefilter.
func (r *shardRunner) Preseed(entry int, recs []eval.CacheRecord) {
	if c, ok := r.entryCache(entry); ok {
		c.ImportRecords(recs)
	}
}

// CacheStats implements shard.Runner, summing the session's cache
// counters over all entry stacks.
func (r *shardRunner) CacheStats() eval.CacheStats {
	var s eval.CacheStats
	for i := range r.stacks {
		if c, ok := r.entryCache(i); ok {
			cs := c.Stats()
			s.Hits += cs.Hits
			s.Misses += cs.Misses
			s.Entries += cs.Entries
			s.Evictions += cs.Evictions
			s.Preseeded += cs.Preseeded
			s.PrefilterHits += cs.PrefilterHits
			s.PrefilterRejected += cs.PrefilterRejected
		}
	}
	return s
}

// EndSession implements shard.Runner, releasing every per-session
// reference — evaluation stacks, the ground-truth evaluator, warm-start
// and retention bookkeeping — so a resident worker's heap stays flat
// across the sessions a hub feeds it. The cross-session record pool
// (when present) survives: retention is exactly the state that is
// supposed to outlive a session.
func (r *shardRunner) EndSession() {
	r.stacks = nil
	r.gt = nil
	r.warmed = make(map[*aig.AIG]bool)
	r.cacheSeq = nil
	r.specHashes = nil
	r.keys = nil
	r.imported = nil
}

// entryCache returns entry's stack as a *eval.Cached when it has one
// (cheap evaluators run uncached).
func (r *shardRunner) entryCache(entry int) (*eval.Cached, bool) {
	if entry < 0 || entry >= len(r.stacks) {
		return nil, false
	}
	c, ok := r.stacks[entry].(*eval.Cached)
	return c, ok
}
