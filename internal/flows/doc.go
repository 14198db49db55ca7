// Package flows wires together the three AIG optimization flows of the
// paper's Fig. 3. All three share the annealing engine and the move set;
// they differ only in the cost oracle:
//
//	Baseline      proxy metrics — AIG levels for delay, node count for area
//	Ground truth  technology mapping + STA at every iteration
//	ML            Table II features + trained GBDT inference
//
// All three evaluators implement eval.Oracle natively: the ground-truth
// oracle maps batch candidates concurrently, each one full signoff
// evaluation in storage recycled through its signoff.Pool; the ML
// oracle extracts features in parallel and predicts through
// gbdt.PredictBatch; and the proxy marks itself cheap so the evaluation
// layer skips memoization for it. The ground-truth oracle also carries
// the eval.DeltaEvaluator marker, so the annealer rebases its moves
// against their parents — the node order every recorded ground-truth
// trajectory was produced with.
//
// # Sweeps, local and sharded
//
// The package also provides the hyperparameter sweep / Pareto machinery
// used for §II-B and Fig. 5: each flow is swept over cost weights and
// annealing decay rates (SweepConfig.Grid defines the canonical
// enumeration), every run's best AIG gets its ground-truth metrics
// (mapping+STA), and the Pareto front of (area, delay) is reported. A
// run guided by ground truth over the sweep's library already scored
// its winner exactly, so RunPoint takes those metrics from the run;
// every other winner is signed off once more. Sweep executes the grid on a local worker
// pool over one shared evaluation stack (NewSweepStack); SweepSharded
// executes the identical grid across sweepd worker processes through
// internal/shard, byte-identical to Sweep on every deterministic field —
// AppendCanonical defines exactly which those are, and the test suite
// asserts the identity over real worker processes. Failures carry their
// grid coordinates as typed *SweepError values (errors.As-matchable),
// which is what the shard layer's retry scheduling keys on.
//
// # Suite sessions
//
// SweepSuite and SweepSuiteSharded generalize both drivers to a list of
// entries — (design, guiding evaluator) pairs — executed through one
// session: one local pool, or one shard-protocol session per worker in
// which every distinct base graph ships once and all entries share the
// work-stealing schedule. The contract is per-entry isolation with
// per-entry identity: each entry's points are byte-identical to a
// standalone Sweep/SweepSharded of that entry, and evaluation caches
// (including the coordinator's merged records and preseed pushes) never
// cross entries, because metrics from different evaluators are not
// interchangeable.
package flows
