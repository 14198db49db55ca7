// Package transform implements functionally-equivalence-preserving AIG
// transformations: the "logic transformations available in ABC" that the
// paper's optimization flows apply at every iteration.
//
// The basic transforms are:
//
//	balance    (b)   rebuild AND trees with minimum depth
//	balance -r (br)  rebuild AND trees with randomized association
//	rewrite    (rw)  4-cut resynthesis, accepted on strict node gain
//	rewrite -z (rwz) 4-cut resynthesis, accepted on non-negative gain
//	refactor   (rf)  large-cone ISOP refactoring, strict gain
//	refactor -z (rfz) large-cone refactoring, non-negative gain
//	resub      (rs)  node resubstitution over existing divisors
//	resub -z   (rsz) resubstitution with zero-gain moves allowed
//	expand     (ex)  deliberate restructuring into two-level form
//	                 (diversity move: typically increases node count)
//	fraig      (fr)  merge simulation-equivalent nodes
//
// Each transform takes a random source used for tie-breaking and move
// sampling, so repeated application yields the diverse space of equivalent
// AIGs from which the paper draws its 40,000 variants per design.
//
// # Contract
//
// Every transform preserves functional equivalence (the property tests
// check it against exhaustive/random simulation), returns a compacted
// AIG (no dangling nodes), and is deterministic given its random source
// — the annealer's per-iteration RNG streams turn that into
// bit-reproducible move sequences.
//
// Recipes are named compositions of transforms — the annealer's move
// catalog. Recipe.Apply produces the derived graph; Recipe.ApplyTracked
// additionally rebases the result against its input
// (aig.Builder.Rebase).
// Rebasing is a pure renumbering, so the function and the node and level
// counts are the same either way, but the node order is not: it is an
// input to every later move and to the ground-truth mapper's cut order,
// so every ground-truth trajectory depends on which of the two produced
// its candidates.
//
// # Storage
//
// A recipe application runs on one pooled mover, the layer's single
// scratch-owning entry point: each step rebuilds its input into one
// retained aig.Builder and compacts that into a second, where the next
// step reads it, and every per-node table, buffer, signature map and
// the exact verifier's memo are reused from step to step. Only the
// final graph is allocated — a copy for Apply, the rebased graph for
// ApplyTracked — so a warm mover allocates nothing else
// except a synthesis program the process-wide caches do not hold yet.
// A catalog Func is a one-step application on a pooled mover.
package transform
