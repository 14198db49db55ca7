// Package signoff defines the repository's single ground-truth evaluation
// pipeline: the "technology mapping + STA" black box of the paper's
// ground-truth flow, also used to label every training sample.
//
// One evaluation runs:
//
//  1. delay-oriented structural mapping (default effort),
//  2. a second, high-effort mapping (wider priority-cut budget and a
//     heavier nominal load), and
//  3. multi-corner slew-propagating NLDM STA on both candidates,
//
// keeping the netlist with the better slow-corner delay (area breaks
// ties). The reported delay is the slow-corner maximum delay; the area is
// the chosen netlist's cell area. Centralizing this here guarantees that
// optimization flows, dataset labels, and experiment tables all agree on
// what "ground truth" means.
//
// # Contract
//
// Pool.Evaluate is the one way to score a graph. It is deterministic:
// structurally equal AIGs produce identical results, on any machine —
// the foundation of the evaluation layer's memoization, of
// cross-process cache-record merging, and of the distributed sweep's
// byte-identical result guarantee.
//
// Each evaluation runs in an EvalState drawn from the pool. The state
// owns the cut enumerator and mapper the pipeline runs, and the
// netlists and STA results of both efforts; Evaluate returns it with
// the result, and releasing it hands all of that storage to the pool's
// next evaluation. Recycling changes only where the storage comes
// from: an evaluation from a warm pool is bit-identical to one from a
// new zero Pool.
package signoff
