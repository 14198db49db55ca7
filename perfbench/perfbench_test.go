package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/eval"
	"aigtimer/internal/flows"
	"aigtimer/internal/transform"
)

// rebuild copies g through a Builder; flipPO complements that PO and
// flipAnd complements the first fanin of that AND node (-1: none).
func rebuild(g *aig.AIG, flipPO int, flipAnd int32) *aig.AIG {
	b := aig.NewBuilder(g.NumPIs())
	lits := make([]aig.Lit, g.NumNodes())
	for i := 0; i < g.NumPIs(); i++ {
		lits[g.PI(i).Node()] = b.PI(i)
	}
	mapLit := func(l aig.Lit) aig.Lit { return lits[l.Node()].NotIf(l.IsCompl()) }
	for n := g.FirstAnd(); int(n) < g.NumNodes(); n++ {
		f0, f1 := g.Fanins(n)
		if n == flipAnd {
			f0 = f0.Not()
		}
		lits[n] = b.And(mapLit(f0), mapLit(f1))
	}
	for i := 0; i < g.NumPOs(); i++ {
		l := mapLit(g.PO(i))
		if i == flipPO {
			l = l.Not()
		}
		b.AddPO(l)
	}
	return b.Build()
}

// programEquivalent is the program's own check: aig.EquivalentExhaustive
// up to the 16 inputs it accepts; above that aig.Simulator over every
// assignment (patternBlocks' coverage is tested separately).
func programEquivalent(a, b *aig.AIG) bool {
	if a.NumPIs() <= 16 {
		return aig.EquivalentExhaustive(a, b)
	}
	rows := make([][]uint64, a.NumPIs())
	for _, pis := range patternBlocks(a.NumPIs()) {
		for i := range rows {
			rows[i] = append(rows[i], pis[i]...)
		}
	}
	words := len(rows[0])
	ra := aig.NewSimulator(a).SimulateWords(rows, words)
	rb := aig.NewSimulator(b).SimulateWords(rows, words)
	for i := 0; i < a.NumPOs(); i++ {
		va, vb := ra.LitValues(a.PO(i)), rb.LitValues(b.PO(i))
		for w := range va {
			if va[w] != vb[w] {
				return false
			}
		}
	}
	return true
}

// TestSimulatorAgreesWithProgram checks the benchmark's simulator against
// the program's equivalence checks on every suite design: a transformed
// variant, a copy with a complemented output, and copies with one AND
// fanin complemented (which may or may not change the function).
func TestSimulatorAgreesWithProgram(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	recipes := transform.Recipes()
	for _, d := range bench.Suite() {
		g := d.Build()
		ref := newReference(g)
		variant := recipes[rng.Intn(len(recipes))].Apply(g, rng)
		if err := ref.equivalent(variant); err != nil {
			t.Errorf("%s: transformed variant reported different: %v", d.Name, err)
		}
		if ref.equivalent(rebuild(g, 0, -1)) == nil {
			t.Errorf("%s: complemented output not flagged", d.Name)
		}
		for k := 0; k < 4; k++ {
			n := g.FirstAnd() + int32(rng.Intn(g.NumAnds()))
			h := rebuild(g, -1, n)
			ours := ref.equivalent(h) == nil
			if theirs := programEquivalent(g, h); ours != theirs {
				t.Errorf("%s: fanin of node %d complemented: simulator says equivalent=%v, aig says %v", d.Name, n, ours, theirs)
			}
		}
	}
}

// TestRandomPatternsFlagBrokenMultiplier covers the random-pattern path
// used above exhaustiveMaxPIs inputs (mult16 has 32).
func TestRandomPatternsFlagBrokenMultiplier(t *testing.T) {
	g := bench.Multiplier(16)
	ref := newReference(g)
	if err := ref.equivalent(rebuild(g, -1, -1)); err != nil {
		t.Fatalf("copy reported different: %v", err)
	}
	if ref.equivalent(rebuild(g, 16, -1)) == nil {
		t.Fatal("complemented product bit not flagged")
	}
}

func TestPatternBlocksCoverEveryAssignment(t *testing.T) {
	for _, n := range []int{3, 7, 12} {
		seen := make([]bool, 1<<n)
		for _, pis := range patternBlocks(n) {
			for w := 0; w < simBlockWords; w++ {
				for bit := 0; bit < 64; bit++ {
					a := 0
					for i := 0; i < n; i++ {
						a |= int(pis[i][w]>>bit&1) << i
					}
					seen[a] = true
				}
			}
		}
		for a, ok := range seen {
			if !ok {
				t.Fatalf("n=%d: assignment %b never simulated", n, a)
			}
		}
	}
}

// TestCheckerFailsBrokenPoint feeds the checker a repetition whose best
// graph is not equivalent to its design.
func TestCheckerFailsBrokenPoint(t *testing.T) {
	d, err := bench.ByName("EX54")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	good := flows.SweepPoint{Result: &anneal.Result{Best: rebuild(g, -1, -1)}}
	bad := flows.SweepPoint{Result: &anneal.Result{Best: rebuild(g, 2, -1)}}
	gs := []group{{name: "t", golden: "t", entries: []flows.SuiteEntry{{Name: "EX54", G: g}}}}
	r := &repResult{
		results: [][]flows.SuiteResult{{{Name: "EX54", Points: []flows.SweepPoint{good, bad}}}},
		errs:    []error{nil},
	}
	c := &checker{seed: defaultSeed + 1, refs: map[*aig.AIG]*reference{}, digests: map[string]string{}, trajectories: map[string]string{}}
	c.rep(gs, r, 0)
	if c.failed != 1 {
		t.Fatalf("failed = %d, want 1 (%v)", c.failed, c.failures)
	}
	// A later repetition with a different result fails on its digest.
	r.results[0][0].Points[0] = bad
	c.rep(gs, r, 0)
	if c.failed != 2 {
		t.Fatalf("failed = %d after a diverging repetition, want 2 (%v)", c.failed, c.failures)
	}
}

func TestTracedEvaluatorsKeepInterfaces(t *testing.T) {
	tr := newTracer()
	lib := cell.Builtin()
	gt := traceEvaluator(flows.NewGroundTruth(lib), tr, -1, spanSignoffFull)
	if _, ok := gt.(eval.DeltaEvaluator); !ok {
		t.Fatal("wrapped GroundTruth lost eval.DeltaEvaluator")
	}
	if _, ok := gt.(eval.Oracle); !ok {
		t.Fatal("wrapped GroundTruth lost eval.Oracle")
	}
	if eval.IsCheap(gt) {
		t.Fatal("wrapped GroundTruth reports CheapEval")
	}
	px := traceEvaluator(flows.Proxy{}, tr, -1, "proxy.eval")
	if !eval.IsCheap(px) {
		t.Fatal("wrapped Proxy no longer reports CheapEval")
	}
	if _, ok := px.(eval.DeltaEvaluator); ok {
		t.Fatal("wrapped Proxy gained eval.DeltaEvaluator")
	}

	d, err := bench.ByName("EX54")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	if got, want := gt.Evaluate(g), flows.NewGroundTruth(lib).Evaluate(g); got != want {
		t.Fatalf("wrapped Evaluate = %+v, want %+v", got, want)
	}
	if c := aggregate(tr.snapshot(), spanSignoffFull); c.calls != 1 {
		t.Fatalf("recorded %d signoff spans, want 1", c.calls)
	}
}

// TestTracedSweepMatchesUntraced is the wrappers' value transparency on
// a small sweep: same canonical digests with and without tracing.
func TestTracedSweepMatchesUntraced(t *testing.T) {
	d, err := bench.ByName("EX54")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	lib := cell.Builtin()
	cfg := sweepConfig(5)
	cfg.AreaWeights = cfg.AreaWeights[:2]
	cfg.DecayRates = cfg.DecayRates[:1]
	plain, err := flows.Sweep(g, flows.NewGroundTruth(lib), lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	traced, err := flows.Sweep(g, traceEvaluator(flows.NewGroundTruth(lib), tr, -1, spanSignoffFull), lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range plain {
		if pointDigest(plain[i]) != pointDigest(traced[i]) {
			t.Fatalf("point %d differs with tracing", i)
		}
	}
	if aggregate(tr.snapshot(), spanSignoffFull).calls == 0 {
		t.Fatal("no signoff spans recorded")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "root", Parent: -1, Start: 0, End: 100},
		{Name: "call", Parent: 0, Start: 10, End: 40},
		{Name: "call", Parent: 0, Start: 30, End: 50},  // overlaps the first
		{Name: "call", Parent: 0, Start: 90, End: 120}, // clipped at the parent's end
	}
	got := selfTimes(spans)
	if want := 100 - 40 - 10; int64(got["root"]*1e9+0.5) != int64(want) {
		t.Fatalf("root self time = %v ns, want %d", got["root"]*1e9, want)
	}
	if want := 30 + 20 + 30; int64(got["call"]*1e9+0.5) != int64(want) {
		t.Fatalf("call self time = %v ns, want %d", got["call"]*1e9, want)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables
// in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []m `json:"end_to_end"`
		PerLayer  []m `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []m, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, program %s", i, spec.Workloads[i].Name, w.name)
		}
	}
}

// TestFleetStartsAndStops runs the hub-mixed fleet's lifecycle: start,
// one warm-up submission, and a close that waits for the hub, listener
// and workers to exit.
func TestFleetStartsAndStops(t *testing.T) {
	f, err := startFleet(flows.NewShardRunner)
	if err != nil {
		t.Fatal(err)
	}
	d, err := bench.ByName("EX54")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.warmUp(cell.Builtin(), d.Build()); err != nil {
		t.Fatal(err)
	}
	f.close()
}
