package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/eval"
	"aigtimer/internal/shard"
)

// Span names recorded by the traced run. Call spans come from the
// wrappers below, at the public interface of the layer they name.
const (
	spanSignoffFull     = "signoff.full"           // GroundTruth Evaluate / EvaluateFull
	spanSignoffDelta    = "signoff.delta"          // EvaluateDelta that answered
	spanSignoffDeclined = "signoff.delta.declined" // EvaluateDelta that declined
	spanSignoffBatch    = "signoff.batch"          // GroundTruth EvaluateBatch
	spanInfer           = "gbdt.infer"             // ML Evaluate / EvaluateBatch (features + inference)
	spanShardRun        = "shard.run"              // worker-side Runner.Run of one grid point
	spanAutoTune        = "anneal.autotune"        // explicit AutoTune of one entry
)

// span is one traced interval. Parent is the index of the enclosing span
// (-1 for a root): workload → entry or submission → call. N is the
// number of graphs a call evaluated.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open starts a container span and returns its index; close ends it.
func (t *tracer) open(name string, parent int) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(time.Since(t.t0)), End: -1})
	return len(t.spans) - 1
}

func (t *tracer) close(id int) {
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// record adds a finished call span.
func (t *tracer) record(name string, parent int, start time.Time, n int) {
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), N: n})
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// callStats aggregates the call spans with one of the given names.
type callStats struct {
	calls  int
	graphs int
	durs   []float64 // seconds, sorted
	total  float64   // seconds
}

func aggregate(spans []span, names ...string) callStats {
	var c callStats
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				c.calls++
				c.graphs += s.N
				c.durs = append(c.durs, s.dur().Seconds())
				c.total += s.dur().Seconds()
			}
		}
	}
	sort.Float64s(c.durs)
	return c
}

// selfTimes returns each span name's total self time in seconds: a
// span's duration minus the part of its interval its children cover.
// Children may overlap (concurrent calls of one entry), so coverage is
// the length of the union of their intervals.
func selfTimes(spans []span) map[string]float64 {
	children := make([][]span, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return kids[a].Start < kids[b].Start })
		var covered, curS, curE int64 = 0, 0, -1
		for _, k := range kids {
			ks, ke := max(k.Start, s.Start), min(k.End, s.End)
			if ke <= ks {
				continue
			}
			if ks > curE {
				if curE > curS {
					covered += curE - curS
				}
				curS, curE = ks, ke
			} else if ke > curE {
				curE = ke
			}
		}
		if curE > curS {
			covered += curE - curS
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered).Seconds()
	}
	return out
}

// writeTrace writes the spans, their per-name self times, and any extra
// records (autotune decisions) as one JSON document.
func writeTrace(path string, t *tracer, extra map[string]any) error {
	spans := t.snapshot()
	doc := map[string]any{"spans": spans, "self_s": selfTimes(spans)}
	for k, v := range extra {
		doc[k] = v
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedOracle wraps an evaluator at the eval.Oracle interface and
// records one span per call. It forwards eval.CheapEvaluator, so a
// wrapped Proxy still bypasses the memo cache exactly like a bare one.
type tracedOracle struct {
	inner  eval.Oracle
	tr     *tracer
	parent int
	name   string
}

func (o *tracedOracle) Name() string { return o.inner.Name() }

func (o *tracedOracle) Evaluate(g *aig.AIG) eval.Metrics {
	start := time.Now()
	m := o.inner.Evaluate(g)
	o.tr.record(o.name, o.parent, start, 1)
	return m
}

func (o *tracedOracle) EvaluateBatch(gs []*aig.AIG) []eval.Metrics {
	start := time.Now()
	ms := o.inner.EvaluateBatch(gs)
	name := o.name
	if name == spanSignoffFull { // a ground-truth batch is its own span kind
		name = spanSignoffBatch
	}
	o.tr.record(name, o.parent, start, len(gs))
	return ms
}

func (o *tracedOracle) CheapEval() bool { return eval.IsCheap(o.inner) }

// tracedDelta is tracedOracle for evaluators with an incremental path:
// it also forwards eval.DeltaEvaluator, and with it the retained states
// (which stay eval.Releasable, so the anchor store still recycles them).
type tracedDelta struct {
	*tracedOracle
	de eval.DeltaEvaluator
}

func (d *tracedDelta) EvaluateFull(g *aig.AIG) (eval.Metrics, eval.DeltaState) {
	start := time.Now()
	m, st := d.de.EvaluateFull(g)
	d.tr.record(spanSignoffFull, d.parent, start, 1)
	return m, st
}

func (d *tracedDelta) EvaluateDelta(prev eval.DeltaState, g *aig.AIG, delta *aig.Delta) (eval.Metrics, eval.DeltaState, bool) {
	start := time.Now()
	m, st, ok := d.de.EvaluateDelta(prev, g, delta)
	name := spanSignoffDelta
	if !ok {
		name = spanSignoffDeclined
	}
	d.tr.record(name, d.parent, start, 1)
	return m, st, ok
}

// traceEvaluator wraps ev so its calls become spans named name under
// parent, preserving every evaluation interface ev implements. The
// wrapper hides ev's concrete type, so flows.NewSweepStack cannot hand
// the autotuned Parallelism to a wrapped *flows.GroundTruth: the traced
// run evaluates sequentially inside each signoff and must show that its
// results still match the untraced run.
func traceEvaluator(ev anneal.Evaluator, tr *tracer, parent int, name string) anneal.Evaluator {
	o := &tracedOracle{inner: eval.AsOracle(ev, 0), tr: tr, parent: parent, name: name}
	if de, ok := ev.(eval.DeltaEvaluator); ok {
		return &tracedDelta{tracedOracle: o, de: de}
	}
	return o
}

// submissionSpans maps an evaluator kind to the open span of the hub
// submission that sweeps it; worker-side spans hang under it.
type submissionSpans struct {
	mu sync.Mutex
	m  map[string]int
}

func (s *submissionSpans) set(kind string, id int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m == nil {
		s.m = map[string]int{}
	}
	s.m[kind] = id
}

func (s *submissionSpans) get(kind string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.m[kind]; ok {
		return id
	}
	return -1
}

// tracedRunner wraps a worker's shard.Runner and records each grid point
// it runs under the span of the submission it belongs to, identified by
// the evaluator kind of the session it was configured for.
type tracedRunner struct {
	shard.Runner
	tr    *tracer
	spans *submissionSpans

	mu   sync.Mutex
	kind string
}

func (r *tracedRunner) Configure(cfg shard.RunConfig) error {
	kind := ""
	if len(cfg.Entries) > 0 {
		kind = cfg.Entries[0].Eval.Kind
	}
	r.mu.Lock()
	r.kind = kind
	r.mu.Unlock()
	return r.Runner.Configure(cfg)
}

func (r *tracedRunner) Run(base *aig.AIG, job shard.JobSpec) (*shard.WorkResult, error) {
	r.mu.Lock()
	parent := r.spans.get(r.kind)
	r.mu.Unlock()
	start := time.Now()
	res, err := r.Runner.Run(base, job)
	r.tr.record(spanShardRun, parent, start, 1)
	return res, err
}
