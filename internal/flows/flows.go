package flows

import (
	"fmt"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/cell"
	"aigtimer/internal/eval"
	"aigtimer/internal/features"
	"aigtimer/internal/gbdt"
	"aigtimer/internal/signoff"
	"aigtimer/internal/stats"
)

// Proxy is the baseline evaluator: delay ∝ AIG levels, area ∝ node count.
// The returned units are proxy units; only relative values matter to the
// annealer's normalized cost.
type Proxy struct{}

// Name implements eval.Evaluator.
func (Proxy) Name() string { return "baseline" }

// Evaluate implements eval.Evaluator.
func (Proxy) Evaluate(g *aig.AIG) anneal.Metrics {
	// +1 keeps metrics positive for degenerate (constant/wire) graphs.
	return anneal.Metrics{
		DelayPS: float64(g.MaxLevel()) + 1,
		AreaUM2: float64(g.NumAnds()) + 1,
	}
}

// EvaluateBatch implements eval.Oracle. Proxy metrics are two slice
// walks, so the batch path is a plain loop — parallelism would cost more
// than it saves.
func (Proxy) EvaluateBatch(gs []*aig.AIG) []anneal.Metrics {
	out := make([]anneal.Metrics, len(gs))
	for i, g := range gs {
		out[i] = Proxy{}.Evaluate(g)
	}
	return out
}

// CheapEval implements eval.CheapEvaluator: proxy metrics cost less than
// the memo cache's fingerprint, so CacheAuto leaves them uncached.
func (Proxy) CheapEval() bool { return true }

// GroundTruth runs the full signoff pipeline (dual-effort technology
// mapping + multi-corner NLDM STA) per evaluation.
//
// It implements eval.DeltaEvaluator, in the trivial form that interface
// allows, so that the annealer rebases its moves against their parents
// (transform.Recipe.ApplyTracked): every recorded ground-truth
// trajectory was produced with rebased candidates, and their node order
// is an input to later moves and to the mapper.
type GroundTruth struct {
	Lib *cell.Library
	// Workers bounds the concurrent mappings of EvaluateBatch; 0 uses
	// GOMAXPROCS.
	Workers int

	// pool recycles evaluation storage across evaluations (see
	// signoff.Pool).
	pool signoff.Pool
}

// NewGroundTruth returns a ground-truth evaluator over the library.
func NewGroundTruth(lib *cell.Library) *GroundTruth {
	return &GroundTruth{Lib: lib}
}

// Name implements eval.Evaluator.
func (*GroundTruth) Name() string { return "ground-truth" }

// Evaluate implements eval.Evaluator: one full signoff evaluation in
// storage taken from the evaluator's pool and handed back once the
// metrics are read.
func (e *GroundTruth) Evaluate(g *aig.AIG) anneal.Metrics {
	r, st, err := e.pool.Evaluate(g, e.Lib)
	if err != nil {
		// Unmatchable graphs cannot occur with the built-in library; make
		// such a candidate maximally unattractive rather than failing the
		// whole optimization.
		return anneal.Metrics{DelayPS: 1e12, AreaUM2: 1e12}
	}
	// The +1 keeps metrics positive for degenerate graphs.
	m := anneal.Metrics{DelayPS: r.DelayPS + 1, AreaUM2: r.AreaUM2 + 1}
	st.Release()
	return m
}

// EvaluateBatch implements eval.Oracle: candidates are mapped and timed
// concurrently, with values identical to sequential Evaluate calls in
// input order regardless of worker count. GroundTruth must stay an
// Oracle: eval.AsOracle would otherwise wrap it in an adapter that hides
// its eval.DeltaEvaluator marker from the annealer.
func (e *GroundTruth) EvaluateBatch(gs []*aig.AIG) []anneal.Metrics {
	out := make([]anneal.Metrics, len(gs))
	eval.ForEach(len(gs), e.Workers, func(i int) { out[i] = e.Evaluate(gs[i]) })
	return out
}

// EvaluateFull implements eval.DeltaEvaluator: Evaluate's metrics and no
// state.
//
// Deprecated: kept only while eval.DeltaEvaluator exists; call Evaluate.
func (e *GroundTruth) EvaluateFull(g *aig.AIG) (anneal.Metrics, eval.DeltaState) {
	return e.Evaluate(g), nil
}

// EvaluateDelta implements eval.DeltaEvaluator by always declining.
//
// Deprecated: kept only while eval.DeltaEvaluator exists; call Evaluate.
func (e *GroundTruth) EvaluateDelta(eval.DeltaState, *aig.AIG, *aig.Delta) (anneal.Metrics, eval.DeltaState, bool) {
	return anneal.Metrics{}, nil, false
}

// ML predicts post-mapping delay and area from Table II features with
// trained GBDT models.
type ML struct {
	DelayModel *gbdt.Model
	AreaModel  *gbdt.Model // optional; node count is used when nil
	// AreaPerNode indicates AreaModel predicts um^2 per AND node (the
	// residual of the nearly-linear area/node-count relation), which
	// generalizes across designs far better than absolute area.
	AreaPerNode bool
	// Workers bounds the concurrency of EvaluateBatch (feature extraction
	// and inference); 0 uses GOMAXPROCS.
	Workers int
}

// Name implements eval.Evaluator.
func (*ML) Name() string { return "ml" }

// Evaluate implements eval.Evaluator.
func (e *ML) Evaluate(g *aig.AIG) anneal.Metrics {
	return e.metrics(g, features.Extract(g), nil, nil, 0)
}

// EvaluateBatch implements eval.Oracle: Table II features are extracted
// on a worker pool and both models predict the whole batch at once
// through gbdt.PredictBatch.
func (e *ML) EvaluateBatch(gs []*aig.AIG) []anneal.Metrics {
	X := make([][]float64, len(gs))
	eval.ForEach(len(gs), e.Workers, func(i int) { X[i] = features.Extract(gs[i]) })
	delay := e.DelayModel.PredictBatchN(X, e.Workers)
	var area []float64
	if e.AreaModel != nil {
		area = e.AreaModel.PredictBatchN(X, e.Workers)
	}
	out := make([]anneal.Metrics, len(gs))
	for i, g := range gs {
		out[i] = e.metrics(g, X[i], delay, area, i)
	}
	return out
}

// metrics assembles one prediction; delay/area are optional precomputed
// batch outputs indexed by i (nil means predict v directly).
func (e *ML) metrics(g *aig.AIG, v []float64, delay, area []float64, i int) anneal.Metrics {
	var m anneal.Metrics
	if delay != nil {
		m.DelayPS = delay[i] + 1
	} else {
		m.DelayPS = e.DelayModel.Predict(v) + 1
	}
	av := 0.0
	if e.AreaModel != nil {
		if area != nil {
			av = area[i]
		} else {
			av = e.AreaModel.Predict(v)
		}
	}
	switch {
	case e.AreaModel != nil && e.AreaPerNode:
		m.AreaUM2 = av*float64(g.NumAnds()) + 1
	case e.AreaModel != nil:
		m.AreaUM2 = av + 1
	default:
		m.AreaUM2 = float64(g.NumAnds()) + 1
	}
	return m
}

// SweepConfig defines the hyperparameter grid of §IV-B: relative cost
// weights and annealing decay rates.
type SweepConfig struct {
	Base         anneal.Params
	DelayWeights []float64
	AreaWeights  []float64
	DecayRates   []float64
	// Store, when set, warm-starts sweeps from persisted evaluation
	// records and flushes new ones back: keyed by (base-graph hash,
	// evaluator-spec hash), loaded behind the memo cache's ImportRecords
	// prefilter — so a stored record may only skip an oracle call whose
	// graph it provably describes, never answer a lookup — and therefore
	// value-transparent: results are byte-identical with the store on,
	// off, cold, or warm. Only sweeps whose guiding evaluator has a wire
	// spec (Proxy, *GroundTruth, *ML) participate; others ignore the
	// store, since an arbitrary evaluator has no stable cross-process
	// identity to key records by.
	Store *eval.Store
	// AutoTune derives the zero-valued cost knobs of Base — adaptive
	// batch bounds and worker count — from a short measurement pilot per
	// suite entry (anneal.AutoTune) instead of the static defaults.
	// Knobs set explicitly in Base stay pinned. Every tuned knob is
	// value-transparent, so results are bit-identical with autotuning on
	// or off; only the cost changes.
	AutoTune bool
}

// tunedBase resolves the params one suite entry actually runs with:
// cfg.Base autotuned against the entry's graph and evaluator when the
// config asks for it. A pilot failure falls back to the untuned base —
// tuning is a cost optimization, never a correctness gate.
func (c SweepConfig) tunedBase(g *aig.AIG, ev anneal.Evaluator) anneal.Params {
	if !c.AutoTune {
		return c.Base
	}
	p, _, err := anneal.AutoTune(g, ev, c.Base)
	if err != nil {
		return c.Base
	}
	return p
}

// DefaultSweep is a compact grid that still traces a front. Its cost
// knobs are self-tuning: each entry's batch bounds and worker count
// come from a measurement pilot rather than static defaults (set Base
// fields, or AutoTune: false, to pin them).
var DefaultSweep = SweepConfig{
	Base:         anneal.DefaultParams,
	DelayWeights: []float64{1.0},
	AreaWeights:  []float64{0.0, 0.15, 0.3, 0.6, 1.0, 1.8, 3.0},
	DecayRates:   []float64{0.95, 0.975, 0.99},
	AutoTune:     true,
}

// GridPoint identifies one run within a sweep grid: its position in
// grid order plus the hyperparameters of that run. The annealing seed of
// the point is SweepConfig.Base.Seed + SeedOffset, so every grid point
// draws from its own deterministic stream regardless of which process
// or worker executes it.
type GridPoint struct {
	Index                          int // position in grid enumeration order
	DelayWeight, AreaWeight, Decay float64
	SeedOffset                     int64
}

// Grid enumerates the sweep's grid points in the canonical order
// (delay weight outermost, decay rate innermost) shared by the local
// and the sharded drivers — the order results are reported in, whatever
// schedule executed them.
func (c SweepConfig) Grid() []GridPoint {
	var pts []GridPoint
	for _, dw := range c.DelayWeights {
		for _, aw := range c.AreaWeights {
			for _, dr := range c.DecayRates {
				pts = append(pts, GridPoint{
					Index:       len(pts),
					DelayWeight: dw, AreaWeight: aw, Decay: dr,
					SeedOffset: int64(len(pts)),
				})
			}
		}
	}
	return pts
}

// SweepError is a sweep-point failure annotated with the grid
// coordinates of the failing run, so retry layers (the shard
// coordinator) and callers can match on it with errors.As and
// reschedule or report the exact point. It wraps the underlying cause
// for errors.Is.
type SweepError struct {
	Design string // suite entry name, when the failing sweep ran in a suite
	Point  GridPoint
	Total  int // grid size, for "point i/N" messages
	Err    error
}

// Error implements error, spelling out the grid coordinates.
func (e *SweepError) Error() string {
	design := ""
	if e.Design != "" {
		design = " of " + e.Design
	}
	return fmt.Sprintf("flows: sweep point %d/%d%s (w_delay=%g w_area=%g decay=%g): %v",
		e.Point.Index+1, e.Total, design, e.Point.DelayWeight, e.Point.AreaWeight, e.Point.Decay, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *SweepError) Unwrap() error { return e.Err }

// SweepPoint is one optimization run within a sweep.
type SweepPoint struct {
	DelayWeight, AreaWeight, Decay float64
	Result                         *anneal.Result
	// Ground-truth metrics of the run's best AIG (mapping + STA),
	// regardless of which evaluator guided the search.
	TrueDelayPS float64
	TrueAreaUM2 float64
}

// NewSweepStack builds the evaluation stack a sweep executor shares
// across its grid points: the evaluator behind a sweep-wide memo cache
// bounded by base.CacheMaxEntries. anneal.Run recognizes the pre-built
// cache and layers nothing on top, so run-level misses still hit here
// when another grid point already evaluated the same structure; every
// miss is one full evaluation. Cheap evaluators (proxy metrics) are
// returned untouched. The sharded worker daemon builds the identical
// stack; metrics are value-transparent through it, so the stack never
// changes results, only their cost.
func NewSweepStack(ev anneal.Evaluator, base anneal.Params) anneal.Evaluator {
	if eval.IsCheap(ev) {
		return ev
	}
	return eval.NewCachedLRU(eval.AsOracle(ev, 0), base.CacheMaxEntries)
}

// RunPoint executes one grid point: an annealing run at the point's
// hyperparameters over the shared evaluation stack, plus the
// ground-truth metrics of the winner. A run guided by gt's own signoff
// (runEv is a *GroundTruth over gt's library, directly or under an
// eval.Cached) already holds them in its BestMetrics: signoff is
// deterministic on the exact structure, and the memo cache answers only
// for structurally equal graphs, so they are taken from the run. Every
// other run's winner is signed off with gt. RunPoint is the unit of
// work both the local worker pool and the sharded worker daemon
// execute; for a fixed SweepConfig the result is bit-identical wherever
// it runs, because the trajectory depends only on (g0, params, seed)
// and every evaluation layer is value-transparent.
func RunPoint(g0 *aig.AIG, runEv anneal.Evaluator, gt *GroundTruth, base anneal.Params, pt GridPoint) (SweepPoint, error) {
	p := base
	p.DelayWeight, p.AreaWeight, p.DecayRate = pt.DelayWeight, pt.AreaWeight, pt.Decay
	p.Seed = base.Seed + pt.SeedOffset
	r, err := anneal.Run(g0, runEv, p)
	if err != nil {
		return SweepPoint{}, err
	}
	m := r.BestMetrics
	if !signsOffAs(runEv, gt) {
		m = gt.Evaluate(r.Best)
	}
	return SweepPoint{
		DelayWeight: pt.DelayWeight, AreaWeight: pt.AreaWeight, Decay: pt.Decay,
		Result: r, TrueDelayPS: m.DelayPS, TrueAreaUM2: m.AreaUM2,
	}, nil
}

// signsOffAs reports whether ev scores every graph exactly as gt does:
// it is a *GroundTruth over gt's library, directly or under an
// eval.Cached.
func signsOffAs(ev anneal.Evaluator, gt *GroundTruth) bool {
	if c, ok := ev.(*eval.Cached); ok {
		ev = c.Underlying()
	}
	e, ok := ev.(*GroundTruth)
	return ok && e.Lib == gt.Lib
}

// WarmRoot precomputes g0's lazily built caches (levels, fanout counts,
// pair index) so concurrent runs — all of which rebase their first
// tracked moves against the shared root — only read it.
func WarmRoot(g0 *aig.AIG) {
	g0.Levels()
	g0.FanoutCounts()
	g0.PairIndex()
}

// Sweep runs the flow once per grid point and reports every winner's
// ground-truth metrics for fair cross-flow comparison: taken from the
// run when ground truth over lib guided it, from a signoff of the
// winner otherwise (see RunPoint). Grid points execute on a bounded
// worker pool (GOMAXPROCS workers, started before any work is queued
// rather than one goroutine per point), and all runs share one memo
// cache through the evaluation layer (NewSweepStack), so structures
// revisited across grid points — starting with g0 itself, which every
// run evaluates first — are scored once. On failure the first error (by
// grid order) is returned as a *SweepError carrying the failing point's
// grid coordinates. Sweep is the single-entry case of SweepSuite.
func Sweep(g0 *aig.AIG, ev anneal.Evaluator, lib *cell.Library, cfg SweepConfig) ([]SweepPoint, error) {
	rs, err := SweepSuite([]SuiteEntry{{G: g0, Eval: ev}}, lib, cfg)
	if err != nil {
		return nil, err
	}
	return rs[0].Points, nil
}

// Front extracts the ground-truth (area, delay) Pareto front of a sweep.
func Front(pts []SweepPoint) []stats.Point {
	raw := make([]stats.Point, len(pts))
	for i, p := range pts {
		raw[i] = stats.Point{X: p.TrueAreaUM2, Y: p.TrueDelayPS, Tag: i}
	}
	return stats.ParetoFront(raw)
}
