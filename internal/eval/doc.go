// Package eval is the repository's unified evaluation layer: every cost
// oracle that scores candidate AIGs during optimization — the proxy
// metrics of the baseline flow, the mapping+STA pipeline of the
// ground-truth flow, the GBDT inference of the ML flow — is presented to
// the search layer through the batch-capable Oracle interface defined
// here.
//
// The layer exists because the evaluator dominates the wall-clock of
// every flow in the paper's Fig. 3 and every sweep point of Fig. 5.
// Two mechanisms attack that cost without changing any reported value:
//
//   - batching (AsOracle): a plain Evaluator is adapted to EvaluateBatch
//     with a worker pool, so a search that proposes several candidates at
//     once scores them concurrently;
//   - memoization (Cached, NewCachedLRU): structurally identical
//     candidates, which annealing revisits constantly in its
//     low-acceptance phase, never re-run mapping+STA — the cache key is a
//     structural fingerprint, but a hit additionally requires full
//     aig.StructuralEqual, so a hash collision costs a comparison, never
//     a wrong answer.
//
// A cache miss is one full evaluation. Re-evaluating only the cone a
// move dirtied is not worth its retained state here: random recipe
// moves dirty most of a design's nodes.
//
// # Contract
//
// Every layer is value-transparent: EvaluateBatch returns exactly what N
// sequential Evaluate calls would, in input order, independent of worker
// count; cache hits return exactly what re-evaluation would. This is
// the property the annealer's bit-reproducible trajectories, the sweep's
// shared cache, and the distributed driver's byte-identical merges are
// all built on: stacking, sharing, or sharding evaluation layers changes
// cost, never results. The only caveat is the counters — hit/miss
// splits are approximate when several goroutines race on one shared
// stack.
//
// Caches are exportable for cross-process merging and preseedable with
// remote knowledge: Export/ExportSince snapshot a Cached oracle as
// CacheRecord values — (fingerprint, structural hash, metrics) triples
// whose CacheKey is the cross-process structure identity the shard
// coordinator merges on — and ImportRecords installs remote records
// behind a prefilter (see internal/shard for the transport). The
// preseed invariant is that the prefilter may only skip work, never
// answer: a pushed record is not a
// lookup entry — it can only substitute for the oracle call of a cache
// miss whose graph it provably describes (structural-hash equality,
// the hashed form of the aig.StructuralEqual compare the in-process
// cache performs on retained graphs), and ambiguous records are
// rejected and re-evaluated. Preseeding therefore changes evaluation
// cost, never scores.
//
// The same record form extends to disk and across sessions: Store is an
// append-only, checksum-framed log of CacheRecords keyed by StoreKey
// (design hash × evaluator-spec hash) that warm-starts later runs
// through the identical ImportRecords prefilter — crash damage is
// truncated away at open, so a store can lose records but never serve a
// wrong one — and RecordPool retains per-key record sets in memory
// under an LRU byte budget for long-lived workers. Remote or stored
// records a cache adopts are remembered as foreign even across
// eviction, so ExportSince never echoes knowledge back to the fleet or
// duplicates it on disk.
package eval
