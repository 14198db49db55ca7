package eval

import (
	"container/list"
	"sync"

	"aigtimer/internal/aig"
)

// sigWords is the width (in 64-bit words, so 64 patterns each) of the
// seeded random simulation folded into the fingerprint. Two words give a
// ~2^-128 chance that functionally different graphs agree, on top of the
// structural components of the key.
const sigWords = 2

// sigSeed seeds the fingerprint simulation; any fixed value works, it
// only has to be the same for every lookup of the same cache.
const sigSeed = 0x51ca9e

// CacheStats is a point-in-time snapshot of a Cached oracle's counters.
type CacheStats struct {
	Hits      int64 // lookups served from memory (incl. intra-batch dedupe)
	Misses    int64 // lookups that ran the underlying oracle
	Entries   int64 // distinct structures currently memoized
	Evictions int64 // entries dropped by the MaxEntries LRU bound

	// Preseed-prefilter counters (all zero unless ImportRecords was
	// called). Preseeded counts records currently pending in the
	// prefilter; PrefilterHits counts oracle evaluations skipped because
	// a pending record supplied the metrics; PrefilterRejected counts
	// prefilter consultations that found pending records under the
	// graph's fingerprint but none describing the graph itself (a
	// witnessed fingerprint collision — the records describe functional
	// twins), so the oracle ran instead. Rejected records stay pending
	// for their true origins.
	Preseeded         int64
	PrefilterHits     int64
	PrefilterRejected int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// cacheEntry pairs a memoized graph with its metrics. The graph is
// retained so that fingerprint collisions can be resolved by full
// structural comparison. fp and elem tie the entry back to its bucket
// and its LRU list position for bounded caches.
type cacheEntry struct {
	g      *aig.AIG
	m      Metrics
	fp     uint64
	sh     uint64 // exact structural hash (aig.Hash), the record identity
	logged bool   // entered the insert log (local knowledge, exportable)
	elem   *list.Element
}

// Cached memoizes an Oracle behind a structural-fingerprint cache. The
// key is a canonical AIG hash built from the PI/PO/node counts, the
// per-node level profile, and a seeded random-simulation signature; a
// fingerprint match alone is never trusted — entries sharing a key are
// disambiguated by full structural comparison (aig.StructuralEqual), so a
// hash collision costs one slice walk instead of a wrong answer.
//
// Caching is sound because every oracle in this repository is
// deterministic: structurally identical AIGs always map, time, and
// featurize identically, so their metrics are interchangeable. Memoized
// graphs are retained for the lifetime of the cache by default — fine
// when that lifetime is one run or one sweep — or up to the
// least-recently-used bound of NewCachedLRU for long-lived shared
// caches.
//
// A cache can additionally be preseeded with remote records
// (ImportRecords): fingerprint+metrics pairs another process evaluated,
// installed behind a prefilter that may substitute for an oracle call
// but never answers a lookup — see preseedLocked for the exact
// adoption/rejection rule and its soundness story.
//
// Cached is safe for concurrent use. Metric values are deterministic
// regardless of interleaving; the hit/miss split is deterministic for a
// single caller and approximate when several goroutines race to insert
// the same structure (both count a miss).
type Cached struct {
	oracle Oracle

	// fp computes the fingerprint; tests override it to force collisions.
	fp func(g *aig.AIG) uint64

	// maxEntries bounds the memoized structures (0 = unbounded). When
	// bounded, entries are tracked in lru (front = most recent) and the
	// least recently used entry is evicted on overflow.
	maxEntries int

	mu        sync.Mutex
	table     map[uint64][]*cacheEntry
	lru       *list.List
	entries   int64
	hits      int64
	misses    int64
	evictions int64

	// preseed is the fingerprint-keyed prefilter of remote records
	// installed by ImportRecords (nil until then; fingerprint-sharing
	// records for distinct structures coexist in one bucket). A pending
	// record never answers a lookup — lookups are answered only by the
	// collision-checked table above. What a record may do, exactly once,
	// is substitute for the oracle call of a miss whose graph it provably
	// describes (the record's structural hash must equal the graph's):
	// the missing graph adopts the record's metrics and is inserted into
	// the table (graph retained), after which every future lookup of it
	// goes through the full structural compare like any other entry. See
	// preseedLocked for the adoption rule.
	preseed           map[uint64][]preseedRec
	preseedPending    int64
	prefilterHits     int64
	prefilterRejected int64

	// remote is every record identity ever imported through
	// ImportRecords (pending or adopted). It is what keeps the no-echo
	// invariant airtight across eviction: an adopted entry that is
	// LRU-evicted and later re-evaluated locally produces the score the
	// fleet already has, so its re-insertion must not enter the insert
	// log — without this set it would, and the coordinator's knowledge
	// would be exported back to it as if it were new.
	remote map[CacheKey]bool

	// insertLog records locally evaluated insertions in order, the
	// backing store of ExportSince: an exporter shipping records
	// incrementally reads only the suffix it has not seen. Each element
	// carries an absolute sequence number (logSeq at append time), so
	// the log can be compacted without invalidating exporter cursors.
	// Unbounded caches log one record per entry — O(entries) by
	// construction; bounded caches churn, so compactLogLocked drops
	// records of evicted entries once the log exceeds twice the entry
	// bound, keeping it O(MaxEntries) under sustained churn (a dropped
	// unexported record only loses a dedup opportunity downstream,
	// never a value).
	insertLog []loggedRecord
	logSeq    int
}

// loggedRecord is one insert-log element: the record plus the absolute
// sequence number ExportSince cursors refer to.
type loggedRecord struct {
	seq int
	rec CacheRecord
}

// NewCached wraps o with an unbounded structural-fingerprint memo
// cache, appropriate for single runs and sweeps whose working set is
// bounded by the run itself.
func NewCached(o Oracle) *Cached { return NewCachedLRU(o, 0) }

// NewCachedLRU wraps o with a structural-fingerprint memo cache
// retaining at most maxEntries structures, evicting least-recently-used
// ones beyond that (maxEntries <= 0 means unbounded). Long-running
// services sharing one cache across requests want a bound; an eviction
// only costs a potential re-evaluation, never a wrong answer.
func NewCachedLRU(o Oracle, maxEntries int) *Cached {
	if maxEntries < 0 {
		maxEntries = 0
	}
	c := &Cached{oracle: o, table: make(map[uint64][]*cacheEntry), maxEntries: maxEntries}
	if maxEntries > 0 {
		c.lru = list.New()
	}
	c.fp = fingerprint
	return c
}

// Name implements Evaluator.
func (c *Cached) Name() string { return c.oracle.Name() + "+cache" }

// Underlying returns the oracle the cache wraps, so callers handed a
// pre-built stack (e.g. a sweep-wide shared cache) can reach the layers
// beneath it — anneal.Run uses this to see whether the evaluator asks
// for rebased moves.
func (c *Cached) Underlying() Oracle { return c.oracle }

// Stats returns a snapshot of the cache counters.
func (c *Cached) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Hits: c.hits, Misses: c.misses, Entries: c.entries, Evictions: c.evictions,
		Preseeded:     c.preseedPending,
		PrefilterHits: c.prefilterHits, PrefilterRejected: c.prefilterRejected,
	}
}

// Evaluate implements Oracle, consulting the cache first.
func (c *Cached) Evaluate(g *aig.AIG) Metrics {
	fp := c.fp(g)
	c.mu.Lock()
	if m, ok := c.lookupLocked(fp, g); ok {
		c.hits++
		c.mu.Unlock()
		return m
	}
	if m, ok := c.preseedLocked(fp, g); ok {
		c.mu.Unlock()
		return m
	}
	c.misses++
	c.mu.Unlock()

	m := c.oracle.Evaluate(g)

	c.mu.Lock()
	c.insertLocked(fp, g, m, true)
	c.mu.Unlock()
	return m
}

// EvaluateBatch implements Oracle. Fingerprints are computed in parallel,
// hits (including structurally duplicate entries within the batch) are
// resolved in input order, and only the distinct misses reach the
// underlying oracle's EvaluateBatch.
func (c *Cached) EvaluateBatch(gs []*aig.AIG) []Metrics {
	n := len(gs)
	out := make([]Metrics, n)
	fps := make([]uint64, n)
	ForEach(n, 0, func(i int) { fps[i] = c.fp(gs[i]) })

	const (
		resolved = -2 // served from the cache
		missing  = -1 // needs evaluation
	)
	alias := make([]int, n) // >= 0: duplicate of an earlier batch index
	miss := make([]int, 0, n)
	c.mu.Lock()
	for i, g := range gs {
		if m, ok := c.lookupLocked(fps[i], g); ok {
			out[i] = m
			alias[i] = resolved
			c.hits++
			continue
		}
		if m, ok := c.preseedLocked(fps[i], g); ok {
			out[i] = m
			alias[i] = resolved
			continue
		}
		alias[i] = missing
		for _, j := range miss {
			if fps[j] == fps[i] && gs[j].StructuralEqual(g) {
				alias[i] = j
				c.hits++
				break
			}
		}
		if alias[i] == missing {
			miss = append(miss, i)
			c.misses++
		}
	}
	c.mu.Unlock()

	if len(miss) > 0 {
		sub := make([]*aig.AIG, len(miss))
		for k, i := range miss {
			sub[k] = gs[i]
		}
		ms := c.oracle.EvaluateBatch(sub)
		c.mu.Lock()
		for k, i := range miss {
			out[i] = ms[k]
			c.insertLocked(fps[i], gs[i], ms[k], true)
		}
		c.mu.Unlock()
	}
	for i := range gs {
		if alias[i] >= 0 {
			out[i] = out[alias[i]]
		}
	}
	return out
}

// lookupLocked scans the entries under fp for a structurally equal
// graph, refreshing its LRU recency on a hit.
func (c *Cached) lookupLocked(fp uint64, g *aig.AIG) (Metrics, bool) {
	for _, e := range c.table[fp] {
		if e.g.StructuralEqual(g) {
			if c.lru != nil {
				c.lru.MoveToFront(e.elem)
			}
			return e.m, true
		}
	}
	return Metrics{}, false
}

// preseedLocked consults the prefilter for a graph that just missed the
// collision-checked table. A pending record substitutes for the oracle
// call only when it provably describes g: its structural hash must
// equal g's (aig.Hash — the hashed form of the exact comparison
// lookupLocked performs on retained graphs). Then the graph adopts the
// record's metrics and is inserted into the table — with the graph
// retained and WITHOUT an insert-log entry, so adopted knowledge is
// never re-exported as if this cache had evaluated it.
//
// A bucket whose records all mismatch is a witnessed fingerprint
// collision: the records describe functional twins of g (annealing
// produces fingerprint-sharing variants routinely; their mappings —
// and metrics — may differ), so none may answer for g, and they stay
// pending for their true origins. What remains after the hash check is
// a blind 64-bit structural-hash collision between distinct structures,
// ~2^-64 per pair: the prefilter may skip work, but the score it
// installs is the one evaluation would have produced.
type preseedRec struct {
	sh uint64
	m  Metrics
}

func (c *Cached) preseedLocked(fp uint64, g *aig.AIG) (Metrics, bool) {
	bucket := c.preseed[fp]
	if len(bucket) == 0 {
		return Metrics{}, false
	}
	sh := g.Hash()
	for i, rec := range bucket {
		if rec.sh != sh {
			continue
		}
		bucket[i] = bucket[len(bucket)-1]
		if bucket = bucket[:len(bucket)-1]; len(bucket) == 0 {
			delete(c.preseed, fp)
		} else {
			c.preseed[fp] = bucket
		}
		c.preseedPending--
		c.prefilterHits++
		c.insertLocked(fp, g, rec.m, false)
		return rec.m, true
	}
	c.prefilterRejected++
	return Metrics{}, false
}

// ImportRecords installs remote cache records (another worker's
// exported memo entries) as prefilter seeds and reports how many were
// accepted. Records whose exact structure the collision-checked table
// already resolves, or that are already pending, are skipped;
// fingerprint-sharing records for distinct structures all remain
// importable (each can only ever serve its own structure). Imported
// records only ever skip oracle work through preseedLocked — they are
// not lookup entries, do not appear in ExportSince output, and cannot
// override a locally evaluated score.
func (c *Cached) ImportRecords(recs []CacheRecord) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.preseed == nil {
		c.preseed = make(map[uint64][]preseedRec, len(recs))
	}
	if c.remote == nil {
		c.remote = make(map[CacheKey]bool, len(recs))
	}
	n := 0
next:
	for _, r := range recs {
		for _, e := range c.table[r.FP] {
			if e.sh == r.SH {
				continue next // already resolved locally
			}
		}
		// From here on the record is remote knowledge whether or not it
		// is ultimately adopted: its structure was scored elsewhere, so
		// a local evaluation of it (e.g. after the adopted entry is
		// LRU-evicted) must never be exported as new.
		c.remote[r.Key()] = true
		bucket := c.preseed[r.FP]
		for _, p := range bucket {
			if p.sh == r.SH {
				continue next // already pending
			}
		}
		c.preseed[r.FP] = append(bucket, preseedRec{sh: r.SH, m: r.M})
		c.preseedPending++
		n++
	}
	return n
}

// insertLocked memoizes (g, m) under fp unless an equal entry already
// exists (two goroutines may evaluate the same structure concurrently),
// then enforces the MaxEntries bound by least-recently-used eviction.
// logged records the insertion in the incremental-export log; adopted
// prefilter entries pass false so remote knowledge is not re-exported,
// and identities in the remote set are suppressed even when logged is
// true (a re-evaluation after evicting an adopted entry produces a
// score the fleet already has).
func (c *Cached) insertLocked(fp uint64, g *aig.AIG, m Metrics, logged bool) {
	if _, ok := c.lookupLocked(fp, g); ok {
		return
	}
	e := &cacheEntry{g: g, m: m, fp: fp, sh: g.Hash()}
	if logged && c.remote[CacheKey{FP: fp, SH: e.sh}] {
		logged = false
	}
	e.logged = logged
	c.table[fp] = append(c.table[fp], e)
	if logged {
		c.insertLog = append(c.insertLog, loggedRecord{seq: c.logSeq, rec: CacheRecord{FP: fp, SH: e.sh, M: m}})
		c.logSeq++
		c.compactLogLocked()
	}
	c.entries++
	if c.lru == nil {
		return
	}
	e.elem = c.lru.PushFront(e)
	for int(c.entries) > c.maxEntries {
		victim := c.lru.Remove(c.lru.Back()).(*cacheEntry)
		bucket := c.table[victim.fp]
		for i, be := range bucket {
			if be == victim {
				bucket[i] = bucket[len(bucket)-1]
				bucket = bucket[:len(bucket)-1]
				break
			}
		}
		if len(bucket) == 0 {
			delete(c.table, victim.fp)
		} else {
			c.table[victim.fp] = bucket
		}
		c.entries--
		c.evictions++
	}
}

// compactLogLocked bounds the insert log of a bounded cache: once the
// log holds more than twice MaxEntries records (with a floor so tiny
// caches do not compact constantly), records whose entry has been
// evicted are dropped and one record is kept per live logged entry.
// Sequence numbers are preserved, so ExportSince cursors stay valid and
// exporters never re-receive what they already exported; a dropped
// record that was never exported is knowledge lost to the fleet — a
// future duplicate evaluation at worst, never a wrong answer. Without
// this, the log grows without bound in any long-lived coordinator even
// though MaxEntries bounds the cache itself.
func (c *Cached) compactLogLocked() {
	if c.maxEntries == 0 {
		return
	}
	limit := 2 * c.maxEntries
	if limit < 64 {
		limit = 64
	}
	if len(c.insertLog) <= limit {
		return
	}
	live := make(map[CacheKey]bool, c.entries)
	for _, bucket := range c.table {
		for _, e := range bucket {
			if e.logged {
				live[CacheKey{FP: e.fp, SH: e.sh}] = true
			}
		}
	}
	kept := c.insertLog[:0]
	for _, lr := range c.insertLog {
		k := lr.rec.Key()
		if live[k] {
			kept = append(kept, lr)
			delete(live, k) // one record per live key
		}
	}
	// Release the tail so the backing array does not pin dropped records.
	tail := c.insertLog[len(kept):]
	for i := range tail {
		tail[i] = loggedRecord{}
	}
	c.insertLog = kept
}

// fingerprint hashes the canonical identity of g: PI/PO/AND counts, the
// per-node level profile, and a seeded random-simulation signature
// (functional content of the POs). Structurally equal graphs always
// produce equal fingerprints; unequal graphs that nevertheless agree are
// caught by the full comparison in lookupLocked.
func fingerprint(g *aig.AIG) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(g.NumPIs())<<32 | uint64(g.NumPOs()))
	mix(uint64(g.NumAnds()))
	lv := g.Levels()
	for i := int(g.FirstAnd()); i < g.NumNodes(); i++ {
		mix(uint64(lv[i]))
	}
	mix(g.Signature(sigWords, sigSeed))
	return h
}
