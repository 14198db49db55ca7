// Package sta performs static timing analysis on mapped netlists, at
// two fidelity levels.
//
// The basic analyzer (Analyze) uses the standard linear (load-dependent)
// delay model for early-stage analysis: a gate's pin-to-output delay is
//
//	delay = intrinsic + drive · load(output net)
//
// where the load sums the input capacitance of every reader pin, a wire
// capacitance per fanout branch, and a fixed output load per primary
// output. Arrival times propagate in topological order, and the critical
// path is traced back from the latest PO.
//
// The signoff analyzer (Signoff) is the accurate variant the
// ground-truth flow pays for at every iteration: NLDM table lookup with
// slew propagation, swept over process corners, the slow corner
// governing the reported delay. This is the "STA" step the paper runs
// after technology mapping to obtain ground-truth maximum delay.
//
// # Determinism
//
// Both analyzers are deterministic functions of (netlist, parameters):
// equal inputs time identically, the property the evaluation layer's
// memoization and the distributed sweep's merges rely on. Signoff
// analyzes into a dead result's storage when the caller passes one, so
// a retained pipeline times without allocating; a recycled result is
// bit-identical to a fresh one. STA keeps no scratch between calls, so
// no analyzer type is needed.
package sta
