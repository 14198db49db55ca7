// Package techmap implements cut-based structural technology mapping of
// AIGs onto a standard-cell library.
//
// For every AND node the mapper takes the node's k-feasible priority
// cuts (k ≤ 4, enumerated by a cut.Enumerator), matches each cut's
// truth table — in both output phases — against the library's match
// index, and keeps the best implementation per phase under a
// delay-oriented cost with a nominal load. Signals are polarity-aware:
// every node may be realized in positive phase, negative phase, or one
// phase plus a shared inverter; pin complementations demanded by a match
// consume the complement phase of the leaf. Cut functions that degenerate
// to a projection of one leaf become wires, and constant cut functions
// become tie cells. An optional area-recovery pass then downsizes drive
// strengths off the critical path under required-time constraints (pure
// sizing: the netlist structure is unchanged, so total area can only
// decrease).
//
// This is the "technology mapping" step whose delay the paper's three
// optimization flows either compute exactly (ground-truth flow), proxy by
// AIG levels (baseline flow), or predict with a learned model (ML flow).
// The mapper is intentionally the expensive step: its cost is what the
// learned predictor amortizes away.
//
// # Determinism and storage
//
// Mapping is a deterministic function of (graph, library, Params, cut
// lists): structurally equal AIGs map to identical netlists, which is
// what lets the evaluation layer memoize results and the distributed
// sweep merge them across processes.
//
// Mapper.Map is the one entry point. The Mapper owns the per-call
// buffers and reuses them across calls, and the netlist is built into
// a dead netlist's storage when the caller passes one, so a warm
// pipeline maps without allocating. Match selection scores each
// candidate into the running best in place, in a fixed order (per
// phase, per cut in list order; within a cut tie cells, then wires,
// then library matches in Matches order), so the first of equal
// candidates always wins. A chosen gate points into the library's
// read-only match lists. The cut budget is the caller's choice of
// enumeration: signoff maps one graph at two efforts over the two lists
// of one cut.Enumerator.EnumerateDual pass.
package techmap
