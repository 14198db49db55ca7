package main

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/dataset"
	"aigtimer/internal/flows"
	"aigtimer/internal/gbdt"
	"aigtimer/internal/shard"
)

const (
	// defaultSeed is the seed the golden digests were recorded at.
	defaultSeed = 1
	// iterations per grid point. flows.DefaultSweep runs 120, which takes
	// ~70 s per gt-suite sweep on 2 cores; 4 keeps several sweeps inside
	// one run while every layer still carries load.
	iterations = 4
	// mlVariants is the number of labeled variants per training design
	// (cmd/experiments' default is 150, the paper's 40,000):
	// labeling cost is mostly the transform walk, and 32 keeps one set-up
	// near 2.5 s on 2 cores.
	mlVariants = 32
	// fleetWorkers is the number of in-process hub workers.
	fleetWorkers = 2
)

var (
	// The paper's split (Table III): models train on EX00/EX08/EX28/EX68
	// and every sweep runs on the unseen test designs.
	trainDesigns = []string{"EX00", "EX08", "EX28", "EX68"}
	testDesigns  = []string{"EX02", "EX11", "EX16", "EX54"}
)

// sweepSeed is the sweep seed of a run's k-th sub-seed; repetition r of
// a run sweeps sub-seed r. Time and memory depend on the input: AutoTune's
// batch bounds come from a short pilot whose outcome depends on the seed,
// and one unlucky pilot (a ceiling of 16 instead of 2) costs a suite
// 100-200 MiB of retained incremental states. A run's medians therefore
// cover one input per repetition, not one input repeated.
func sweepSeed(seed int64, k int) int64 { return seed + int64(k)*1000 }

// sweepConfig is flows.DefaultSweep — its grid and its self-tuning cost
// knobs, none pinned — at the given sweep seed and the benchmark's
// iteration count.
func sweepConfig(seed int64) flows.SweepConfig {
	cfg := flows.DefaultSweep
	cfg.Base.Seed = seed
	cfg.Base.Iterations = iterations
	return cfg
}

// group is the entries of one suite call a repetition makes: the local
// suite, or one hub submission. Its name prefixes the digest keys of its
// points; golden names the workload whose recorded digests it must match.
type group struct {
	name    string
	golden  string
	kind    string // evaluator kind on the shard wire
	entries []flows.SuiteEntry
}

// repResult is one repetition's outcome, per group.
type repResult struct {
	wall       time.Duration
	results    [][]flows.SuiteResult
	errs       []error
	stats      []*shard.Stats  // hub submissions only
	turnaround []time.Duration // hub submissions only
	tune       []tuneRecord    // traced repetitions only
}

// tuneRecord is one explicit anneal.AutoTune of the traced run.
type tuneRecord struct {
	Entry       string  `json:"entry"`
	Seconds     float64 `json:"seconds"`
	AcceptRate  float64 `json:"accept_rate"`
	FullEvalMS  float64 `json:"full_eval_ms"`
	DeltaEvalMS float64 `json:"delta_eval_ms"`
	BatchMax    int     `json:"batch_max"`
	Workers     int     `json:"workers"`
	Parallelism int     `json:"parallelism"`
	Threshold   float64 `json:"threshold"`
}

// setupStats are the layer timings a set-up reports (ml-suite only).
type setupStats struct {
	labelS, trainS float64
	samples, trees int
	models         []byte // serialized models, to check set-ups agree
}

// instance is a set-up workload, ready for timed repetitions.
type instance interface {
	groups() []group
	// rep runs one timed repetition at the given sweep seed. With a tracer
	// it first builds traced evaluators (or a traced fleet) and runs one
	// explicit AutoTune per entry, none of which is in the returned wall
	// time.
	rep(seed int64, tr *tracer, root int) (*repResult, error)
	close()
}

type workload struct {
	name   string
	setups int // set-ups per run; setup_s is their median
	setup  func() (instance, setupStats, error)
}

var workloads = []workload{
	{name: "gt-suite", setups: 15, setup: setupGTSuite},
	{name: "ml-suite", setups: 5, setup: setupMLSuite},
	{name: "hub-mixed", setups: 15, setup: setupHubMixed},
}

func design(name string) (*aig.AIG, error) {
	d, err := bench.ByName(name)
	if err != nil {
		return nil, err
	}
	return d.Build(), nil
}

// suiteInstance is a local flows.SweepSuite workload.
type suiteInstance struct {
	lib   *cell.Library
	g     group
	fresh func() anneal.Evaluator // an evaluator with no state, for the traced run
	span  string                  // call span name of the guiding evaluator
}

func (s *suiteInstance) groups() []group { return []group{s.g} }
func (s *suiteInstance) close()          {}

func (s *suiteInstance) rep(seed int64, tr *tracer, root int) (*repResult, error) {
	cfg := sweepConfig(seed)
	entries := s.g.entries
	res := &repResult{}
	var ids []int
	if tr != nil {
		ev := s.fresh()
		entries = make([]flows.SuiteEntry, len(s.g.entries))
		for i, e := range s.g.entries {
			id := tr.open("entry:"+e.Name, root)
			ids = append(ids, id)
			t, err := autoTune(tr, id, e, ev, cfg.Base)
			if err != nil {
				return nil, err
			}
			res.tune = append(res.tune, t)
			entries[i] = flows.SuiteEntry{Name: e.Name, G: e.G, Eval: traceEvaluator(ev, tr, id, s.span)}
		}
	}
	start := time.Now()
	rs, err := flows.SweepSuite(entries, s.lib, cfg)
	res.wall = time.Since(start)
	for _, id := range ids {
		tr.close(id)
	}
	res.results = [][]flows.SuiteResult{rs}
	res.errs = []error{err}
	return res, nil
}

// autoTune runs and records one explicit anneal.AutoTune of entry e.
func autoTune(tr *tracer, parent int, e flows.SuiteEntry, ev anneal.Evaluator, base anneal.Params) (tuneRecord, error) {
	start := time.Now()
	p, rep, err := anneal.AutoTune(e.G, ev, base)
	tr.record(spanAutoTune, parent, start, 1)
	if err != nil {
		return tuneRecord{}, fmt.Errorf("autotune %s: %w", e.Name, err)
	}
	return tuneRecord{
		Entry: e.Name, Seconds: time.Since(start).Seconds(),
		AcceptRate: rep.AcceptRate,
		FullEvalMS: float64(rep.FullEval) / 1e6, DeltaEvalMS: float64(rep.DeltaEval) / 1e6,
		BatchMax: p.BatchMax, Workers: p.Workers, Parallelism: p.Parallelism, Threshold: p.IncrementalThreshold,
	}, nil
}

// groundTruthSuite builds a ground-truth suite over the named designs
// and scores each design once, the reference the sweep improves on.
func groundTruthSuite(name string, gs []*aig.AIG, names []string) (*suiteInstance, error) {
	lib := cell.Builtin()
	gt := flows.NewGroundTruth(lib)
	g := group{name: name, golden: name, kind: "ground-truth"}
	for i, d := range gs {
		flows.WarmRoot(d)
		if m := gt.Evaluate(d); m.DelayPS <= 0 || m.AreaUM2 <= 0 {
			return nil, fmt.Errorf("%s: reference signoff of %s failed", name, names[i])
		}
		g.entries = append(g.entries, flows.SuiteEntry{Name: names[i], G: d, Eval: gt})
	}
	return &suiteInstance{
		lib: lib, g: g,
		fresh: func() anneal.Evaluator { return flows.NewGroundTruth(lib) },
		span:  spanSignoffFull,
	}, nil
}

func setupGTSuite() (instance, setupStats, error) {
	var gs []*aig.AIG
	for _, n := range testDesigns {
		g, err := design(n)
		if err != nil {
			return nil, setupStats{}, err
		}
		gs = append(gs, g)
	}
	s, err := groundTruthSuite("gt-suite", gs, testDesigns)
	return s, setupStats{}, err
}

// setupMLSuite labels variants of the training designs, trains the
// delay and per-node area models as cmd/experiments does, and builds the
// ML-guided suite over the test designs. The models are trained at the
// default seed whatever the run's seed, as a deployed model would be:
// the walk that picks the variants costs 1.3-3.4 s depending on its
// seed, which would otherwise swamp set-up time differences.
func setupMLSuite() (instance, setupStats, error) {
	var st setupStats
	var train []dataset.Sample
	t0 := time.Now()
	for _, n := range trainDesigns {
		g, err := design(n)
		if err != nil {
			return nil, st, err
		}
		ss, err := dataset.Generate(n, g, dataset.DefaultGenParams(mlVariants, defaultSeed))
		if err != nil {
			return nil, st, err
		}
		train = append(train, ss...)
	}
	st.labelS = time.Since(t0).Seconds()
	st.samples = len(train)

	X, delay, area := dataset.Matrix(train)
	ratio := make([]float64, len(area))
	for i := range area {
		ratio[i] = area[i] / float64(train[i].Ands)
	}
	cut := len(X) * 9 / 10
	p := gbdt.DefaultParams
	p.Seed = defaultSeed
	t1 := time.Now()
	dm, _, err := gbdt.TrainValid(X[:cut], delay[:cut], X[cut:], delay[cut:], p)
	if err != nil {
		return nil, st, err
	}
	am, _, err := gbdt.TrainValid(X[:cut], ratio[:cut], X[cut:], ratio[cut:], p)
	if err != nil {
		return nil, st, err
	}
	st.trainS = time.Since(t1).Seconds()
	st.trees = len(dm.Trees) + len(am.Trees)
	var buf bytes.Buffer
	if err := dm.Save(&buf); err != nil {
		return nil, st, err
	}
	if err := am.Save(&buf); err != nil {
		return nil, st, err
	}
	st.models = buf.Bytes()

	ml := &flows.ML{DelayModel: dm, AreaModel: am, AreaPerNode: true}
	g := group{name: "ml-suite", golden: "ml-suite", kind: "ml"}
	for _, n := range testDesigns {
		d, err := design(n)
		if err != nil {
			return nil, st, err
		}
		flows.WarmRoot(d)
		g.entries = append(g.entries, flows.SuiteEntry{Name: n, G: d, Eval: ml})
	}
	return &suiteInstance{
		lib: cell.Builtin(), g: g,
		fresh: func() anneal.Evaluator { return ml },
		span:  spanInfer,
	}, st, nil
}

// fleet is an in-process sweephub on a loopback listener with
// fleetWorkers registered workers, as `sweephub` plus `sweepd -hub`
// processes would run it.
type fleet struct {
	hub *shard.Hub
	ln  net.Listener
	wg  sync.WaitGroup
}

func startFleet(runner func() shard.Runner) (*fleet, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &fleet{hub: shard.NewHub(shard.HubOptions{}), ln: ln}
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		f.hub.ServeListener(ln) // returns once close shuts the listener
	}()
	for i := 0; i < fleetWorkers; i++ {
		conn, err := net.Dial("tcp", f.addr())
		if err != nil {
			f.close()
			return nil, err
		}
		f.wg.Add(1)
		go func(name string) {
			defer f.wg.Done()
			shard.RegisterWorker(conn, name, runner()) // returns when the hub says bye
		}(fmt.Sprintf("w%d", i))
	}
	return f, nil
}

func (f *fleet) addr() string { return f.ln.Addr().String() }

// close stops the hub, its listener and its workers, and waits for them.
func (f *fleet) close() {
	f.hub.Close()
	f.ln.Close()
	f.wg.Wait()
}

// warmUp runs one small submission — one design, one grid point, proxy
// flow, at the default seed so every set-up does the same work — so the
// fleet is connected and its code paths are warm, as a resident
// service's are when users submit.
func (f *fleet) warmUp(lib *cell.Library, g *aig.AIG) error {
	cfg := sweepConfig(defaultSeed)
	cfg.AreaWeights = cfg.AreaWeights[:1]
	cfg.DecayRates = cfg.DecayRates[:1]
	_, _, err := flows.SweepSuiteSharded([]flows.SuiteEntry{{Name: "warm-up", G: g, Eval: flows.Proxy{}}},
		lib, cfg, flows.ShardOptions{Hub: f.addr()})
	return err
}

// hubInstance is the hub-mixed workload: two clients submit at once.
type hubInstance struct {
	lib   *cell.Library
	gs    []group
	fleet *fleet
}

func (h *hubInstance) groups() []group { return h.gs }
func (h *hubInstance) close()          { h.fleet.close() }

func setupHubMixed() (instance, setupStats, error) {
	lib := cell.Builtin()
	gt := group{name: "hub-mixed/gt", golden: "gt-suite", kind: "ground-truth"}
	px := group{name: "hub-mixed/proxy", golden: "hub-mixed/proxy", kind: "baseline"}
	gtEval := flows.NewGroundTruth(lib)
	for _, n := range testDesigns {
		d, err := design(n)
		if err != nil {
			return nil, setupStats{}, err
		}
		gt.entries = append(gt.entries, flows.SuiteEntry{Name: n, G: d, Eval: gtEval})
		px.entries = append(px.entries, flows.SuiteEntry{Name: n, G: d, Eval: flows.Proxy{}})
	}
	h := &hubInstance{lib: lib, gs: []group{gt, px}}
	f, err := startFleet(flows.NewShardRunner)
	if err != nil {
		return nil, setupStats{}, err
	}
	if err := f.warmUp(lib, gt.entries[len(gt.entries)-1].G); err != nil {
		f.close()
		return nil, setupStats{}, err
	}
	h.fleet = f
	return h, setupStats{}, nil
}

func (h *hubInstance) rep(seed int64, tr *tracer, root int) (*repResult, error) {
	cfg := sweepConfig(seed)
	f := h.fleet
	res := &repResult{
		results:    make([][]flows.SuiteResult, len(h.gs)),
		errs:       make([]error, len(h.gs)),
		stats:      make([]*shard.Stats, len(h.gs)),
		turnaround: make([]time.Duration, len(h.gs)),
	}
	var spans submissionSpans
	if tr != nil {
		tf, err := startFleet(func() shard.Runner {
			return &tracedRunner{Runner: flows.NewShardRunner(), tr: tr, spans: &spans}
		})
		if err != nil {
			return nil, err
		}
		defer tf.close()
		if err := tf.warmUp(h.lib, h.gs[0].entries[len(h.gs[0].entries)-1].G); err != nil {
			return nil, err
		}
		f = tf
		for _, g := range h.gs {
			ev := g.entries[0].Eval
			if g.kind == "ground-truth" {
				ev = flows.NewGroundTruth(h.lib)
			}
			for _, e := range g.entries {
				t, err := autoTune(tr, root, e, ev, cfg.Base)
				if err != nil {
					return nil, err
				}
				t.Entry = g.name + "/" + e.Name
				res.tune = append(res.tune, t)
			}
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, g := range h.gs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			id := -1
			if tr != nil {
				id = tr.open("submission:"+g.name, root)
				spans.set(g.kind, id)
			}
			t0 := time.Now()
			rs, st, err := flows.SweepSuiteSharded(g.entries, h.lib, cfg, flows.ShardOptions{Hub: f.addr()})
			res.turnaround[i] = time.Since(t0)
			if tr != nil {
				tr.close(id)
			}
			res.results[i], res.stats[i], res.errs[i] = rs, st, err
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	return res, nil
}
