// Package anneal implements the simulated-annealing logic optimization
// paradigm used by all three of the paper's flows (§IV): at each iteration
// a randomly selected transformation recipe is applied to the current AIG,
// the candidate is scored by a pluggable cost oracle (proxy metrics,
// ground-truth mapping+STA, or ML inference — the only difference between
// the flows), and the move is accepted if it improves the weighted cost or
// probabilistically via the Metropolis criterion, allowing the
// hill-climbing the paper motivates.
//
// Evaluation goes through the internal/eval layer: candidates are
// proposed in speculative batches and scored concurrently through
// eval.Oracle.EvaluateBatch, behind a structural-fingerprint memo cache
// that spares revisited structures a second mapping+STA. For evaluators
// that implement eval.DeltaEvaluator, as the ground-truth flow does,
// moves are applied with Recipe.ApplyTracked, which rebases each
// candidate against its parent; that node order is part of the
// ground-truth trajectories.
//
// # Trajectory determinism
//
// Each iteration draws from its own deterministic RNG stream derived
// from (seed, chain, iteration), so a proposal depends only on its base
// state and iteration index — which makes the accepted trajectory
// bit-identical for a fixed seed at ANY batch size and ANY worker count,
// on any machine, local or remote. This is the package's load-bearing
// contract: the sweep drivers (flows.Sweep, flows.SweepSharded) merge
// runs executed on arbitrary schedules and assert byte-identical
// results. Every knob in Params that is not (Iterations, StartTemp,
// DecayRate, weights, Seed, Recipes) changes only cost or reporting,
// never the trajectory.
//
// Speculation is branch-predicted from the acceptance history: cold
// phases speculate a LINE of proposals down the all-rejected path (an
// acceptance discards the stale tail), hot phases speculate a TREE
// covering both successor states of every decision so that 2^d-1
// concurrent evaluations always consume exactly d iterations. With
// Params.BatchMax set, the speculative budget additionally adapts
// between rounds to the recent acceptance rate within
// [BatchMin, BatchMax] — shrinking when acceptances land, growing
// through rejected runs — consuming only the (batch-invariant)
// trajectory, so adaptive sizing changes evaluation counts, never
// results. Independent chains (parallel restarts) run concurrently and
// merge best-of into one Result; chain 0 of a multi-chain run is
// bit-identical to a single-chain run at the same seed.
package anneal
