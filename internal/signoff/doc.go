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
// Evaluate is deterministic: structurally equal AIGs produce identical
// results, on any machine — the foundation of the evaluation layer's
// memoization, of cross-process cache-record merging, and of the
// distributed sweep's byte-identical result guarantee.
//
// A Pool evaluates the same pipeline from recycled storage:
// Pool.EvaluateState returns the result together with the EvalState
// that holds it, and releasing the state hands its arenas, mapping
// states, netlists, and STA results to the pool's next evaluation. The
// pooled result is bit-identical to Evaluate's; only where the storage
// comes from differs.
package signoff
