package anneal

import (
	"fmt"
	"runtime"
	"time"

	"aigtimer/internal/aig"
)

// Self-tuning search parameters. The cost knobs of Params — adaptive
// batch bounds and worker count — are value-transparent: the accepted
// trajectory for a fixed seed is identical at every setting, so
// choosing them is purely a question of cost, and cost is measurable.
// AutoTune measures it with a short pilot run and fills every knob the
// caller left at its zero value; anything set explicitly (a flag, a
// config file) is never overwritten.

// autoTunePilotIters is the pilot-run length: long enough for the
// acceptance rate to be meaningful, short enough to be noise next to a
// real sweep (a 21-point default grid at 120 iterations spends ~1% of
// its budget here).
const autoTunePilotIters = 16

// TuneReport records what AutoTune measured and what it decided, for
// logging and tests. Chosen* fields hold the final values (measured or
// pinned); a false Tuned* flag means the caller had pinned that knob.
type TuneReport struct {
	PilotIterations int
	AcceptRate      float64
	FullEval        time.Duration // measured full-pipeline latency
	// DeltaEval is always 0: no evaluation takes an incremental path.
	//
	// Deprecated: nothing in this module sets DeltaEval, and it will be
	// removed.
	DeltaEval time.Duration

	ChosenBatchMin, ChosenBatchMax int
	ChosenWorkers                  int
	TunedBatch, TunedWorkers       bool
}

// String renders the report in one line for flow logs.
func (r TuneReport) String() string {
	mark := func(tuned bool) string {
		if tuned {
			return ""
		}
		return " (pinned)"
	}
	return fmt.Sprintf(
		"autotune: accept %.0f%%, full %v -> batch [%d,%d]%s, workers %d%s",
		100*r.AcceptRate, r.FullEval.Round(time.Microsecond),
		r.ChosenBatchMin, r.ChosenBatchMax, mark(r.TunedBatch),
		r.ChosenWorkers, mark(r.TunedWorkers))
}

// parallelEvalCutoff is the full-evaluation latency below which
// cross-goroutine dispatch costs more than eval-level workers hide.
const parallelEvalCutoff = 200 * time.Microsecond

// splitCoreBudget picks the eval-level worker count from a measured
// full-evaluation latency: 1 when an evaluation is so cheap that
// dispatch overhead would dominate, otherwise every core (maxProcs)
// capped at batchMax, the largest speculative batch the annealer will
// ever hand out — workers beyond it would sit idle.
func splitCoreBudget(fullEval time.Duration, batchMax, maxProcs int) int {
	if fullEval < parallelEvalCutoff || maxProcs < 1 {
		return 1
	}
	if batchMax > 0 && batchMax < maxProcs {
		return batchMax
	}
	return maxProcs
}

// AutoTune returns p with its zero-valued cost knobs — BatchMin/BatchMax
// and Workers — derived from measurement: a short sequential pilot run
// of the same (g0, evaluator, seed) observes the acceptance rate and
// the evaluation latency, and the knobs follow from those.
//
//   - BatchMax tracks the expected rejection-run length 1/acceptance
//     (speculation past the next acceptance is wasted work), clamped to
//     [2, 16]; BatchMin stays 1 so hot phases shrink all the way back.
//   - Workers stays 1 when a full evaluation is so cheap that dispatch
//     overhead would dominate; otherwise it takes GOMAXPROCS, capped at
//     the batch ceiling (splitCoreBudget).
//
// Fields the caller set explicitly are never overwritten, so flags pin any
// subset. Every tuned knob is value-transparent by construction (see the
// Params field docs), so AutoTune changes evaluation cost, never the
// trajectory; the pilot's own evaluations are discarded. The error is
// non-nil only when the pilot run itself fails.
func AutoTune(g0 *aig.AIG, ev Evaluator, p Params) (Params, TuneReport, error) {
	rep := TuneReport{
		ChosenBatchMin: p.BatchMin, ChosenBatchMax: p.BatchMax,
		ChosenWorkers: p.Workers,
	}
	// Batch bounds count as pinned when either is set: a caller choosing
	// BatchMax alone has chosen adaptive sizing deliberately.
	tuneBatch := p.BatchMin == 0 && p.BatchMax == 0
	tuneWorkers := p.Workers == 0
	if !tuneBatch && !tuneWorkers {
		return p, rep, nil // everything pinned; skip the pilot
	}

	pilot := p
	pilot.Iterations = autoTunePilotIters
	if p.Iterations < pilot.Iterations {
		pilot.Iterations = p.Iterations
	}
	// Sequential single chain, cache off: each iteration is exactly one
	// real evaluation, unpolluted by memo hits and speculative waste.
	pilot.Chains = 1
	pilot.BatchSize = 1
	pilot.BatchMin, pilot.BatchMax = 0, 0
	pilot.Workers = 1
	pilot.CacheMode = CacheOff
	r, err := Run(g0, ev, pilot)
	if err != nil {
		return p, rep, fmt.Errorf("anneal: autotune pilot: %w", err)
	}

	steps := r.TotalSteps()
	rep.PilotIterations = steps
	if steps > 0 {
		rep.AcceptRate = float64(r.Accepted) / float64(steps)
	}
	rep.FullEval = r.InitialEvalTime

	if tuneBatch {
		bmax := 16
		if rep.AcceptRate > 0 {
			bmax = int(1/rep.AcceptRate + 0.5)
		}
		if bmax < 2 {
			bmax = 2
		}
		if bmax > 16 {
			bmax = 16
		}
		p.BatchMin, p.BatchMax = 1, bmax
		rep.ChosenBatchMin, rep.ChosenBatchMax = 1, bmax
		rep.TunedBatch = true
	}
	if tuneWorkers {
		// The worker cap is the final batch ceiling (tuned above or
		// pinned by the caller), past which extra workers would sit idle.
		capMax := p.BatchMax
		if capMax <= 0 {
			capMax = EffectiveBatchSize(p.BatchSize)
		}
		w := splitCoreBudget(rep.FullEval, capMax, runtime.GOMAXPROCS(0))
		p.Workers = w
		rep.ChosenWorkers = w
		rep.TunedWorkers = true
	}
	return p, rep, nil
}
