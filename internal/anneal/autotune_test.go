package anneal

import (
	"testing"
	"time"
)

// TestSplitCoreBudget drives the worker choice with fake measured
// latencies: cheap evaluations keep one worker, costly ones take every
// core but stop at the batch ceiling.
func TestSplitCoreBudget(t *testing.T) {
	cheap := 50 * time.Microsecond
	costly := 2 * time.Millisecond
	cases := []struct {
		name     string
		fullEval time.Duration
		batchMax int
		maxProcs int
		wantW    int
	}{
		{"cheap-all-free", cheap, 16, 8, 1},
		{"cutoff-counts-as-costly", parallelEvalCutoff, 16, 8, 8},
		{"costly-batch-bound", costly, 4, 16, 4},
		{"costly-core-bound", costly, 16, 8, 8},
		{"costly-no-batch-ceiling", costly, 0, 8, 8},
		{"costly-uniprocessor", costly, 16, 1, 1},
		{"zero-maxprocs-clamped", costly, 16, 0, 1},
	}
	for _, tc := range cases {
		if w := splitCoreBudget(tc.fullEval, tc.batchMax, tc.maxProcs); w != tc.wantW {
			t.Errorf("%s: got workers=%d, want %d", tc.name, w, tc.wantW)
		}
	}
}

// TestSplitCoreBudgetSweep exhausts a small grid and asserts the
// bounds hold at every point: at least one worker, never more than the
// cores or the batch ceiling, and exactly one below the cutoff.
func TestSplitCoreBudgetSweep(t *testing.T) {
	for _, full := range []time.Duration{0, parallelEvalCutoff - 1, parallelEvalCutoff, time.Second} {
		for batchMax := 0; batchMax <= 20; batchMax += 5 {
			for procs := 1; procs <= 12; procs++ {
				w := splitCoreBudget(full, batchMax, procs)
				if w < 1 || w > procs || (batchMax > 0 && w > batchMax) {
					t.Fatalf("full=%v batchMax=%d procs=%d: %d workers out of bounds",
						full, batchMax, procs, w)
				}
				if full < parallelEvalCutoff && w != 1 {
					t.Fatalf("full=%v batchMax=%d procs=%d: %d workers below the cutoff",
						full, batchMax, procs, w)
				}
				if full >= parallelEvalCutoff && batchMax == 0 && w != procs {
					t.Fatalf("full=%v procs=%d: %d workers leave cores idle", full, procs, w)
				}
			}
		}
	}
}
