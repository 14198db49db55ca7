package eval

import (
	"runtime"
	"sync"

	"aigtimer/internal/aig"
)

// Metrics is an evaluator's estimate of a candidate's post-mapping
// quality. Proxy evaluators report proxy units (levels, node count);
// physical evaluators report ps and um².
type Metrics struct {
	DelayPS float64
	AreaUM2 float64
}

// Evaluator scores one candidate AIG; it is the cost oracle of Fig. 3.
// Evaluate must be deterministic (equal graphs yield equal metrics) and
// safe for concurrent use with distinct graphs.
type Evaluator interface {
	Name() string
	Evaluate(g *aig.AIG) Metrics
}

// Oracle is a batch-capable Evaluator. EvaluateBatch returns one Metrics
// per input graph, in input order, with values identical to sequential
// Evaluate calls regardless of internal scheduling — callers rely on this
// for bit-reproducible optimization trajectories at any worker count.
type Oracle interface {
	Evaluator
	EvaluateBatch(gs []*aig.AIG) []Metrics
}

// CheapEvaluator marks evaluators whose Evaluate costs no more than the
// structural fingerprint computed by Cached (for example the baseline
// proxy metrics, which are two slice walks). CacheAuto policies skip the
// memo cache for such evaluators because memoizing them is a net loss.
type CheapEvaluator interface {
	CheapEval() bool
}

// IsCheap reports whether ev declares itself too cheap to be worth
// caching.
func IsCheap(ev Evaluator) bool {
	c, ok := ev.(CheapEvaluator)
	return ok && c.CheapEval()
}

// AsOracle adapts ev to the Oracle interface. Evaluators with a native
// EvaluateBatch are returned unchanged (they manage their own
// concurrency); plain evaluators are wrapped with a worker pool that
// scores batch entries concurrently on up to `workers` goroutines
// (GOMAXPROCS when workers <= 0).
func AsOracle(ev Evaluator, workers int) Oracle {
	if o, ok := ev.(Oracle); ok {
		return o
	}
	return &batchAdapter{ev: ev, workers: workers}
}

// batchAdapter lifts a plain Evaluator to an Oracle with a worker pool.
type batchAdapter struct {
	ev      Evaluator
	workers int
}

func (a *batchAdapter) Name() string { return a.ev.Name() }

func (a *batchAdapter) Evaluate(g *aig.AIG) Metrics { return a.ev.Evaluate(g) }

func (a *batchAdapter) EvaluateBatch(gs []*aig.AIG) []Metrics {
	out := make([]Metrics, len(gs))
	ForEach(len(gs), a.workers, func(i int) { out[i] = a.ev.Evaluate(gs[i]) })
	return out
}

// ForEach calls f(i) for every i in [0,n) on up to `workers` goroutines
// (GOMAXPROCS when workers <= 0) and returns once all calls complete.
// Iteration order is unspecified; f must write its result to a location
// owned by index i. With one worker (or n < 2) it degenerates to a plain
// loop with zero goroutine overhead.
func ForEach(n, workers int, f func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			f(i)
		}
		return
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)
	wg.Wait()
}

// DeltaState is the opaque state a DeltaEvaluator's EvaluateFull
// returns for its EvaluateDelta to start from.
//
// Deprecated: nothing in this module produces or consumes a DeltaState;
// it survives only for DeltaEvaluator and will be removed with it.
type DeltaState interface{}

// DeltaEvaluator is implemented by evaluators whose candidates are
// rebased against their parent (transform.Recipe.ApplyTracked) before
// evaluation: the annealer keys its choice of rebased moves on this
// interface. EvaluateFull returns Evaluate's metrics and may return a
// nil state; EvaluateDelta may always decline (ok=false), and when it
// answers, its metrics must equal Evaluate(g) exactly.
//
// Deprecated: no evaluation in this module takes a delta path any more.
// flows.GroundTruth keeps both methods in their trivial forms only
// because benchmark tracing forwards this interface to mark
// ground-truth moves as rebased; the interface will be removed once
// that forwarding no longer needs it.
type DeltaEvaluator interface {
	Evaluator
	EvaluateFull(g *aig.AIG) (Metrics, DeltaState)
	EvaluateDelta(prev DeltaState, g *aig.AIG, d *aig.Delta) (Metrics, DeltaState, bool)
}
