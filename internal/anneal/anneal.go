package anneal

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/eval"
	"aigtimer/internal/transform"
)

// Metrics is an evaluator's estimate of a candidate's post-mapping
// quality; it aliases eval.Metrics, the evaluation layer's currency.
type Metrics = eval.Metrics

// Evaluator scores candidate AIGs; it is the cost oracle of Fig. 3.
// Evaluators with a native EvaluateBatch (eval.Oracle) are used directly;
// plain evaluators are adapted with a worker pool.
type Evaluator = eval.Evaluator

// CacheMode selects the memo-cache policy of a run.
type CacheMode int

const (
	// CacheAuto memoizes evaluations unless the evaluator declares itself
	// cheaper than the fingerprint (eval.CheapEvaluator), like the
	// baseline proxy metrics.
	CacheAuto CacheMode = iota
	// CacheOn always memoizes.
	CacheOn
	// CacheOff never memoizes.
	CacheOff
)

// Params configures one annealing run.
type Params struct {
	Iterations  int
	StartTemp   float64 // in normalized cost units (typical: 0.02-0.2)
	DecayRate   float64 // temperature multiplier per iteration (0,1]
	DelayWeight float64
	AreaWeight  float64
	Seed        int64
	Recipes     []transform.Recipe // move set; nil = full 103-recipe catalog

	// Evaluation-layer knobs. All default (zero value) to the sequential
	// single-chain behavior on one core and scale up automatically on
	// multi-core machines; the accepted trajectory for a fixed Seed is
	// identical at every setting of BatchSize and Workers.
	// BatchSize is the speculative candidate budget per round; 0 =
	// min(8, GOMAXPROCS).
	BatchSize int
	// BatchMin/BatchMax enable adaptive batch sizing when BatchMax > 0:
	// each chain tracks its recent acceptance rate and resizes its
	// speculative budget between rounds within [BatchMin, BatchMax]
	// (BatchMin 0 means 1), starting from the effective BatchSize
	// clamped into the bounds. Hot phases (acceptances landing) shrink
	// the budget — speculation past an acceptance is wasted — and cold
	// phases (all-rejected rounds) grow it back, amortizing evaluation
	// latency over long rejected runs. The trajectory is batch-invariant
	// by construction (per-iteration RNG streams), and the resize
	// decisions depend only on that trajectory, so adaptive sizing
	// changes Evals/SpeculativeEvals but never History, Best, or any
	// metric.
	BatchMin int
	BatchMax int
	// Workers bounds proposal-generation concurrency and the batch
	// adapter wrapped around plain evaluators (0 = GOMAXPROCS). Native
	// oracles manage their own evaluation concurrency — set their knob
	// (e.g. flows.GroundTruth.Workers, flows.ML.Workers) to bound it.
	Workers int
	// Chains is the number of independent chains merged best-of; 0 or 1
	// = single chain.
	Chains int
	// CacheMode is the memo-cache policy; default CacheAuto.
	CacheMode CacheMode
	// CacheMaxEntries bounds the memo cache with LRU eviction; 0 keeps
	// every evaluated structure for the cache's lifetime. Run applies
	// it to the per-run cache it builds; flows.Sweep applies it to the
	// sweep-wide shared cache instead.
	CacheMaxEntries int
	// IncrementalThreshold has no effect: every evaluation that misses
	// the memo cache is a full one.
	//
	// Deprecated: nothing in this module reads or sets
	// IncrementalThreshold, and it will be removed.
	IncrementalThreshold float64
	// Parallelism has no effect: a signoff evaluation always runs
	// sequentially, and cores go to whole evaluations instead (Workers,
	// speculative batches, Chains).
	//
	// Deprecated: nothing in this module reads or sets Parallelism, and
	// it will be removed.
	Parallelism int
}

// DefaultParams is a reasonable medium-effort configuration.
var DefaultParams = Params{
	Iterations:  120,
	StartTemp:   0.05,
	DecayRate:   0.97,
	DelayWeight: 1.0,
	AreaWeight:  0.5,
	Seed:        1,
}

// Step records one annealing iteration for analysis.
type Step struct {
	Iter     int
	Recipe   string
	Metrics  Metrics
	Cost     float64
	Accepted bool
	Ands     int
	Levels   int32
}

// ChainResult is the outcome of one annealing chain within a run.
type ChainResult struct {
	Chain       int   // chain index (0-based)
	Seed        int64 // the chain's derived RNG seed
	Best        *aig.AIG
	BestCost    float64
	BestMetrics Metrics
	Accepted    int
	History     []Step
}

// Result is the outcome of an annealing run. With Chains > 1 the
// top-level Best/BestCost/BestMetrics/History describe the winning chain
// and the time/eval counters aggregate over all chains (the total budget
// spent), mirroring the multi-start convention.
type Result struct {
	Best        *aig.AIG
	BestMetrics Metrics
	BestCost    float64
	Initial     Metrics
	History     []Step
	Accepted    int

	// Chains holds the per-chain outcomes (length >= 1); Chains[0] of a
	// multi-chain run is bit-identical to a single-chain run at the same
	// seed.
	Chains []ChainResult

	// Time decomposition, the quantities behind Fig. 2 and Table IV:
	// MoveTime covers transformation application and graph processing,
	// EvalTime covers the evaluator (mapping+STA or feature+inference)
	// inside the loop. InitialEvalTime is the pre-loop evaluation of the
	// starting AIG; it is deliberately excluded from EvalTime so that
	// PerIterationEval reflects only the per-iteration cost.
	MoveTime        time.Duration
	EvalTime        time.Duration
	InitialEvalTime time.Duration

	// Oracle accounting. Evals counts evaluations requested by the loop
	// (excluding the initial one); SpeculativeEvals counts batch entries
	// discarded because an earlier proposal in the same batch was
	// accepted, so Evals == Iterations*chains + SpeculativeEvals.
	// CacheHits/CacheMisses are the memo-cache counters (zero when the
	// cache is off); hits also cover the initial evaluation and
	// speculative candidates, so they need not sum to Evals.
	Evals            int
	SpeculativeEvals int
	CacheHits        int64
	CacheMisses      int64

	// DeltaEvals and FullEvals are always 0: no evaluation takes an
	// incremental path any more.
	//
	// Deprecated: nothing in this module sets them, and they will be
	// removed.
	DeltaEvals int64
	// Deprecated: see DeltaEvals.
	FullEvals int64
}

// TotalSteps returns the number of iterations consumed across all
// chains (equal to len(History) for a single-chain run). It is the
// denominator matching the aggregated Accepted/MoveTime/EvalTime
// counters.
func (r *Result) TotalSteps() int {
	if len(r.Chains) <= 1 {
		return len(r.History)
	}
	n := 0
	for _, c := range r.Chains {
		n += len(c.History)
	}
	return n
}

// PerIterationEval returns the average in-loop evaluator time per
// consumed iteration over all chains (the initial evaluation is tracked
// separately in InitialEvalTime).
func (r *Result) PerIterationEval() time.Duration {
	if n := r.TotalSteps(); n > 0 {
		return r.EvalTime / time.Duration(n)
	}
	return 0
}

// PerIterationMove returns the average move (transform) time per
// consumed iteration over all chains.
func (r *Result) PerIterationMove() time.Duration {
	if n := r.TotalSteps(); n > 0 {
		return r.MoveTime / time.Duration(n)
	}
	return 0
}

// CacheHitRate returns the memo-cache hit rate of the run, or 0 when the
// cache was off or never consulted.
func (r *Result) CacheHitRate() float64 {
	if t := r.CacheHits + r.CacheMisses; t > 0 {
		return float64(r.CacheHits) / float64(t)
	}
	return 0
}

// EffectiveBatchSize resolves a Params.BatchSize value to the batch the
// run actually uses: the value itself, or min(8, GOMAXPROCS) for the
// auto default of 0. Exported so callers outside Run (the bench-anneal
// driver) size against the same number.
func EffectiveBatchSize(v int) int {
	if v != 0 {
		return v
	}
	if v = runtime.GOMAXPROCS(0); v > 8 {
		v = 8
	}
	return v
}

// movesTracked reports whether candidates are rebased against their
// parent (Recipe.ApplyTracked): true when the evaluator under the memo
// cache is an eval.DeltaEvaluator, as flows.GroundTruth is. Rebasing
// renumbers a candidate's nodes, and that order is an input to later
// moves and to the ground-truth mapper, so it is part of every recorded
// ground-truth trajectory; evaluators that do not ask for it skip the
// rebase work entirely.
func movesTracked(oracle eval.Oracle) bool {
	for {
		c, ok := oracle.(*eval.Cached)
		if !ok {
			break
		}
		oracle = c.Underlying()
	}
	_, ok := oracle.(eval.DeltaEvaluator)
	return ok
}

// chainSeed derives the RNG seed of chain c, matching the historical
// multi-start convention so chain 0 reproduces a single run at p.Seed.
func chainSeed(seed int64, c int) int64 { return seed + int64(c)*1000003 }

// iterSeed derives the per-iteration RNG stream seed (splitmix64-style
// mix). Giving every iteration its own stream is what decouples the
// trajectory from batching: a proposal depends only on (state, iteration
// index), never on how many speculative proposals preceded it.
func iterSeed(chainSeed int64, iter int) int64 {
	z := uint64(chainSeed) + 0x9e3779b97f4a7c15*uint64(iter+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Run performs simulated annealing from g0 under the given evaluator.
func Run(g0 *aig.AIG, ev Evaluator, p Params) (*Result, error) {
	if p.Iterations <= 0 {
		return nil, fmt.Errorf("anneal: Iterations must be positive")
	}
	if p.DecayRate <= 0 || p.DecayRate > 1 {
		return nil, fmt.Errorf("anneal: DecayRate must be in (0,1]")
	}
	if p.DelayWeight < 0 || p.AreaWeight < 0 || p.DelayWeight+p.AreaWeight == 0 {
		return nil, fmt.Errorf("anneal: need nonnegative weights with positive sum")
	}
	if p.BatchSize < 0 || p.Workers < 0 || p.Chains < 0 {
		return nil, fmt.Errorf("anneal: BatchSize, Workers, and Chains must be nonnegative")
	}
	if p.BatchMin < 0 || p.BatchMax < 0 {
		return nil, fmt.Errorf("anneal: BatchMin and BatchMax must be nonnegative")
	}
	if p.BatchMax > 0 && p.BatchMin > p.BatchMax {
		return nil, fmt.Errorf("anneal: BatchMin %d exceeds BatchMax %d", p.BatchMin, p.BatchMax)
	}
	if p.BatchMax == 0 && p.BatchMin > 0 {
		return nil, fmt.Errorf("anneal: BatchMin without BatchMax (adaptive sizing is enabled by BatchMax > 0)")
	}
	recipes := p.Recipes
	if recipes == nil {
		recipes = transform.Recipes()
	}
	batch := EffectiveBatchSize(p.BatchSize)
	chains := p.Chains
	if chains == 0 {
		chains = 1
	}

	oracle := eval.AsOracle(ev, p.Workers)
	// An already-cached oracle (e.g. the sweep-wide cache flows.Sweep
	// shares across grid points) is used as-is — wrapping a second cache
	// on top would double the fingerprint cost and graph retention. Its
	// counters are snapshotted so the Result reports this run's share
	// (approximate when several runs share the cache concurrently).
	cached, preCached := oracle.(*eval.Cached)
	if !preCached && (p.CacheMode == CacheOn || (p.CacheMode == CacheAuto && !eval.IsCheap(ev))) {
		cached = eval.NewCachedLRU(oracle, p.CacheMaxEntries)
		oracle = cached
	}
	var statsBefore eval.CacheStats
	if preCached {
		statsBefore = cached.Stats()
	}

	// Warm g0's lazily computed caches so concurrent chains (and the
	// transforms they apply to the shared starting state) only read it.
	g0.Levels()
	g0.FanoutCounts()

	t0 := time.Now()
	init := oracle.Evaluate(g0)
	initTime := time.Since(t0)
	if init.DelayPS <= 0 || init.AreaUM2 <= 0 {
		return nil, fmt.Errorf("anneal: evaluator %s returned nonpositive initial metrics %+v", ev.Name(), init)
	}
	cost := func(m Metrics) float64 {
		return p.DelayWeight*m.DelayPS/init.DelayPS + p.AreaWeight*m.AreaUM2/init.AreaUM2
	}

	tracked := movesTracked(oracle)
	if tracked {
		// Like Levels/FanoutCounts above: concurrent chains rebase their
		// first proposals against the shared g0, so its pair index must
		// be built before they only read it.
		g0.PairIndex()
	}
	crs := make([]chainState, chains)
	var wg sync.WaitGroup
	for c := 0; c < chains; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			crs[c] = runChain(g0, oracle, p, recipes, batch, chainSeed(p.Seed, c), cost, init, tracked)
		}(c)
	}
	wg.Wait()

	res := &Result{Initial: init, InitialEvalTime: initTime}
	winner := 0
	for c := range crs {
		cr := &crs[c]
		res.MoveTime += cr.moveTime
		res.EvalTime += cr.evalTime
		res.Accepted += cr.accepted
		res.Evals += cr.evals
		res.SpeculativeEvals += cr.speculative
		res.Chains = append(res.Chains, ChainResult{
			Chain: c, Seed: chainSeed(p.Seed, c),
			Best: cr.best, BestCost: cr.bestCost, BestMetrics: cr.bestMetrics,
			Accepted: cr.accepted, History: cr.history,
		})
		if cr.bestCost < crs[winner].bestCost {
			winner = c
		}
	}
	w := &crs[winner]
	res.Best, res.BestCost, res.BestMetrics, res.History = w.best, w.bestCost, w.bestMetrics, w.history
	if cached != nil {
		s := cached.Stats()
		res.CacheHits = s.Hits - statsBefore.Hits
		res.CacheMisses = s.Misses - statsBefore.Misses
	}
	return res, nil
}

// chainState is the working state and bookkeeping of one chain.
type chainState struct {
	best        *aig.AIG
	bestCost    float64
	bestMetrics Metrics
	accepted    int
	evals       int
	speculative int
	history     []Step
	moveTime    time.Duration
	evalTime    time.Duration
}

// specNode is one speculative candidate move: a proposal for a specific
// iteration index from an assumed base state.
type specNode struct {
	g        *aig.AIG
	recipe   string
	accept   float64 // pre-drawn Metropolis uniform, fixed before evaluation
	rejChild int32   // next node if this proposal is rejected (-1 = none)
	accChild int32   // next node if this proposal is accepted (-1 = none)
}

// treeDepth returns the largest speculation-tree depth d whose node
// count 2^d - 1 fits in the batch budget.
func treeDepth(batch int) int {
	d := 1
	for (1<<(d+1))-1 <= batch {
		d++
	}
	return d
}

// runChain executes one annealing chain with branch-predicted
// speculation. Every round proposes a set of candidates (each iteration
// index has its own RNG stream, so a proposal depends only on its base
// state and index), scores them in one EvaluateBatch, and consumes the
// decisions in iteration order; unconsumed proposals are discarded and
// counted in speculative.
//
// Two speculation shapes cover the two annealing regimes, chosen per
// round from the acceptance history (itself part of the deterministic
// trajectory, so the choice is identical at every batch size and worker
// count):
//
//   - cold (no recent acceptance): a LINE of b proposals, all from the
//     current state — the all-rejected path. Consumes up to b iterations
//     per round; an acceptance invalidates and discards the tail.
//   - hot (recent acceptance): a TREE of depth d (2^d - 1 proposals)
//     covering both the accept and reject successor of every decision.
//     Always consumes exactly d iterations per round regardless of the
//     acceptance outcome — speculation never mispredicts, at the price
//     of 2^d - 1 - d wasted evaluations that run concurrently anyway.
//
// With BatchMax > 0 the speculative budget additionally adapts between
// rounds to the recent acceptance rate: a round that landed an
// acceptance halves the budget (speculation past an acceptance is
// waste), an all-rejected round doubles it (long rejected runs amortize
// perfectly), clamped to [BatchMin, BatchMax]. The adaptation consumes
// only the acceptance trajectory — which is batch-invariant — so it
// changes evaluation counts, never results.
func runChain(g0 *aig.AIG, oracle eval.Oracle, p Params, recipes []transform.Recipe,
	batch int, seed int64, cost func(Metrics) float64, init Metrics, tracked bool) chainState {

	// apply runs one recipe move, rebased against its base when the
	// evaluator asks for it (tracked); rebasing costs a graph copy per
	// proposal, pure waste for proxy-style evaluators.
	apply := func(r transform.Recipe, base *aig.AIG, rng *rand.Rand) *aig.AIG {
		if tracked {
			return r.ApplyTracked(base, rng)
		}
		return r.Apply(base, rng)
	}

	cs := chainState{
		best:        g0,
		bestCost:    cost(init),
		bestMetrics: init,
		history:     make([]Step, 0, p.Iterations),
	}
	cur, curCost := g0, cs.bestCost
	temp := p.StartTemp
	adaptive := p.BatchMax > 0
	minBatch := p.BatchMin
	if minBatch < 1 {
		minBatch = 1
	}
	curBatch := batch
	if adaptive {
		if curBatch > p.BatchMax {
			curBatch = p.BatchMax
		}
		if curBatch < minBatch {
			curBatch = minBatch
		}
		batch = p.BatchMax // capacity bound below
	}
	nodes := make([]specNode, 0, batch)
	gs := make([]*aig.AIG, 0, batch)
	bases := make([]*aig.AIG, 0, batch)
	sinceAccept := 0 // consumed iterations since the last acceptance

	// propose fills nodes[lo:hi] for iteration index iter, node j taking
	// bases[j] as its assumed current state. Proposals are independent
	// given their per-iteration RNG streams, so they run on the worker
	// pool; the shared bases' lazy caches are pre-warmed by the caller.
	// Rebasing (tracked) is deterministic, so the trajectory stays
	// batch- and worker-invariant.
	propose := func(lo, hi, iter int) {
		eval.ForEach(hi-lo, p.Workers, func(j int) {
			rng := rand.New(rand.NewSource(iterSeed(seed, iter)))
			r := recipes[rng.Intn(len(recipes))]
			n := &nodes[lo+j]
			n.g = apply(r, bases[lo+j], rng)
			n.recipe = r.Name
			n.accept = rng.Float64()
			n.rejChild, n.accChild = -1, -1
		})
	}

	it := 0
	for it < p.Iterations {
		rem := p.Iterations - it
		tMove := time.Now()
		// Warm the current state's lazy caches; parallel proposals then
		// only read the shared graph (AIG fields are package-private, so
		// transforms cannot mutate it otherwise). Tracked moves also
		// rebase against cur, so its pair index is warmed too.
		cur.Levels()
		cur.FanoutCounts()
		if tracked {
			cur.PairIndex()
		}

		hot := sinceAccept < curBatch
		d := treeDepth(curBatch)
		if !hot || d > rem {
			d = 1
		}
		nodes = nodes[:0]
		bases = bases[:0]
		if hot && d > 1 {
			// Tree round: level l holds the 2^l proposals for iteration
			// it+l, one per reachable state after l decisions.
			lo := 0
			nodes = append(nodes, specNode{})
			bases = append(bases, cur)
			propose(0, 1, it)
			for l := 1; l < d; l++ {
				hi := len(nodes)
				for pi := lo; pi < hi; pi++ {
					nodes[pi].rejChild = int32(len(nodes))
					nodes = append(nodes, specNode{})
					bases = append(bases, bases[pi])
					nodes[pi].accChild = int32(len(nodes))
					nodes = append(nodes, specNode{})
					bases = append(bases, nodes[pi].g)
				}
				propose(hi, len(nodes), it+l)
				lo = hi
			}
		} else {
			// Line round: b proposals for iterations it..it+b-1, all from
			// the current state (the all-rejected path).
			b := curBatch
			if b > rem {
				b = rem
			}
			for j := 0; j < b; j++ {
				nodes = append(nodes, specNode{})
				bases = append(bases, cur)
			}
			// Line proposals span distinct iteration indices, so fan out
			// over them directly instead of via propose (which serves one
			// index per call).
			eval.ForEach(b, p.Workers, func(j int) {
				rng := rand.New(rand.NewSource(iterSeed(seed, it+j)))
				r := recipes[rng.Intn(len(recipes))]
				n := &nodes[j]
				n.g = apply(r, cur, rng)
				n.recipe = r.Name
				n.accept = rng.Float64()
				n.rejChild, n.accChild = -1, -1
				if j+1 < b {
					n.rejChild = int32(j + 1)
				}
			})
		}
		cs.moveTime += time.Since(tMove)

		gs = gs[:0]
		for i := range nodes {
			gs = append(gs, nodes[i].g)
		}
		tEval := time.Now()
		ms := oracle.EvaluateBatch(gs)
		cs.evalTime += time.Since(tEval)
		cs.evals += len(nodes)

		// Consume decisions along the realized accept/reject path.
		consumed := 0
		roundAccepted := 0
		for ni := int32(0); ni >= 0; {
			n := &nodes[ni]
			m := ms[ni]
			c := cost(m)
			delta := c - curCost
			accepted := delta < 0 || (temp > 0 && n.accept < math.Exp(-delta/temp))
			cs.history = append(cs.history, Step{
				Iter: it, Recipe: n.recipe, Metrics: m, Cost: c, Accepted: accepted,
				Ands: n.g.NumAnds(), Levels: n.g.MaxLevel(),
			})
			temp *= p.DecayRate
			it++
			consumed++
			if accepted {
				cur, curCost = n.g, c
				cs.accepted++
				roundAccepted++
				sinceAccept = 0
				if c < cs.bestCost {
					cs.best, cs.bestCost, cs.bestMetrics = n.g, c, m
				}
				ni = n.accChild
			} else {
				sinceAccept++
				ni = n.rejChild
			}
		}
		cs.speculative += len(nodes) - consumed
		// Adapt the next round's budget to this round's acceptance rate:
		// any acceptance means speculation beyond it was waste, so halve;
		// a fully rejected round means the line paid off end to end, so
		// double. The inputs (acceptance outcomes) are batch-invariant,
		// so the budget schedule — and everything downstream — is
		// deterministic for a fixed seed.
		if adaptive {
			if roundAccepted > 0 {
				if curBatch /= 2; curBatch < minBatch {
					curBatch = minBatch
				}
			} else {
				if curBatch *= 2; curBatch > p.BatchMax {
					curBatch = p.BatchMax
				}
			}
		}
	}
	return cs
}
