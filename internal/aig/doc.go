// Package aig implements And-Inverter Graphs (AIGs), the netlist
// representation used throughout this repository.
//
// An AIG is a directed acyclic graph whose internal nodes are two-input AND
// gates and whose edges may be complemented (the "inverter" part). It is the
// standard intermediate representation for logic optimization: the paper's
// proxy metrics are the AIG node count (area proxy) and the AIG level count
// (delay proxy).
//
// # Representation and invariants
//
// Nodes are stored in a flat slice in topological order: index 0 is the
// constant-false node, indices 1..NumPIs() are the primary inputs, and
// every subsequent index is an AND node whose fanins precede it. Signals
// are referred to by literals (type Lit): a node index shifted left by
// one, with the low bit indicating complementation, exactly as in the
// AIGER format. Topological node order is an invariant every producer in
// this package maintains (Builder, Rebase, Compact, the binary and delta
// decoders) and every consumer relies on — it is what lets mapping, STA,
// and simulation run as single forward passes.
//
// AIGs built through a Builder are structurally hashed: requesting an AND
// of the same (possibly swapped) literal pair twice yields the same node,
// and trivial cases (x·0, x·x, x·x̄ ...) are simplified on the fly. An AIG
// is immutable after construction; the lazily computed caches (Levels,
// FanoutCounts, PairIndex) must be warmed before concurrent use, as the
// annealer and sweep drivers do.
//
// A Builder keeps its storage from graph to graph. Its strash table is
// open-addressed (flat key and node arrays, a power-of-two size, linear
// probing) and sized from the graph about to be built. Reset starts a
// new graph in the retained storage, Compact rebuilds a graph's
// reachable part into it, and Rebase (see Deltas) uses its scratch; each
// costs time in proportion to the graph in hand. Graph exposes the graph
// under construction without copying, with its level cache kept current
// by And. The transform layer's movers hold two Builders and run every
// step of a recipe through them, so only a recipe's final graph is
// allocated.
//
// StructuralEqual is the identity predicate of the evaluation layer:
// graphs equal under it (same node array, same fanin order, same POs) are
// indistinguishable to every deterministic downstream pipeline, so their
// evaluation results are interchangeable. It is deliberately stricter
// than functional equivalence.
//
// # Simulation
//
// Simulator evaluates graphs on 64-pattern words with a reusable engine
// that runs each call as one sequential pass; Signature folds a seeded
// random simulation into a functional fingerprint.
//
// # Deltas
//
// Builder.Rebase renumbers a derived graph into the canonical
// delta-friendly form relative to a base: a matched prefix (shared
// structure, sorted by base index, so the translation is monotone)
// followed by the dirty suffix, the new structure and its transitive
// fanout. The annealer rebases every ground-truth move against its
// parent (transform.Recipe.ApplyTracked), so the rebased node order is
// part of those trajectories.
//
// EncodeDelta/DecodeDelta serialize a graph against a base graph both
// sides hold, back-referencing shared structure through the same strash
// matching Rebase uses while preserving exact node order — the warm
// shard-handoff format of the distributed sweep (internal/shard), also
// usable as an exact full-graph codec by encoding against an empty base.
// WriteBinary/ParseBinary speak the standard binary AIGER format for
// interoperability (ParseBinary re-strashes, so it round-trips structure,
// not node numbering; use the delta codec when bit-exact identity
// matters).
package aig
