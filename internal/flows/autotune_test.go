package flows

import (
	"bytes"
	"testing"

	"aigtimer/internal/anneal"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
)

// sameHistory asserts two runs took the identical trajectory: same
// steps, same recipes, same metrics, same acceptance decisions.
func sameHistory(t *testing.T, a, b []anneal.Step) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("history length differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Recipe != y.Recipe || x.Accepted != y.Accepted || x.Cost != y.Cost ||
			x.Metrics != y.Metrics || x.Ands != y.Ands || x.Levels != y.Levels {
			t.Fatalf("step %d differs:\n  %+v\nvs\n  %+v", i, x, y)
		}
	}
}

// Autotuned knobs are all value-transparent, so a run under AutoTune'd
// params must be byte-identical to the untuned run — same trajectory,
// same best — with only the cost profile allowed to differ.
func TestAutoTuneTrajectoryIdentity(t *testing.T) {
	g := testAIG(7)
	gt := NewGroundTruth(cell.Builtin())
	p := anneal.DefaultParams
	p.Iterations = 30

	ref, err := anneal.Run(g, gt, p)
	if err != nil {
		t.Fatal(err)
	}
	tuned, rep, err := anneal.AutoTune(g, gt, p)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.TunedBatch || !rep.TunedWorkers {
		t.Fatalf("zero-valued knobs not tuned: %+v", rep)
	}
	if tuned.BatchMin != 1 || tuned.BatchMax < 2 || tuned.BatchMax > 16 {
		t.Fatalf("batch bounds out of range: [%d,%d]", tuned.BatchMin, tuned.BatchMax)
	}
	if tuned.Workers < 1 {
		t.Fatalf("bad workers: %d", tuned.Workers)
	}
	r, err := anneal.Run(g, gt, tuned)
	if err != nil {
		t.Fatal(err)
	}
	sameHistory(t, ref.History, r.History)
	if ref.BestCost != r.BestCost || ref.BestMetrics != r.BestMetrics {
		t.Fatalf("best differs: %v/%v vs %v/%v", ref.BestCost, ref.BestMetrics, r.BestCost, r.BestMetrics)
	}
	if !ref.Best.StructuralEqual(r.Best) {
		t.Fatal("best AIG differs between tuned and untuned runs")
	}
}

// Explicitly set knobs are pinned: AutoTune must never overwrite them.
func TestAutoTunePinnedKnobs(t *testing.T) {
	g := testAIG(7)
	gt := NewGroundTruth(cell.Builtin())
	p := anneal.DefaultParams
	p.Iterations = 8
	p.BatchMin, p.BatchMax = 2, 4
	p.Workers = 3

	tuned, rep, err := anneal.AutoTune(g, gt, p)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.BatchMin != p.BatchMin || tuned.BatchMax != p.BatchMax || tuned.Workers != p.Workers {
		t.Fatalf("pinned params rewritten: %+v vs %+v", tuned, p)
	}
	if rep.TunedBatch || rep.TunedWorkers {
		t.Fatalf("pinned knobs reported as tuned: %+v", rep)
	}
	if rep.PilotIterations != 0 {
		t.Fatalf("fully pinned config still ran a pilot: %+v", rep)
	}
}

// The sweep drivers must produce identical results with autotuning on
// and off — the wiring inherits the knobs' value transparency.
func TestSweepAutoTuneIdentity(t *testing.T) {
	g := testAIG(9)
	gt := NewGroundTruth(cell.Builtin())
	cfg := SweepConfig{
		Base:         anneal.DefaultParams,
		DelayWeights: []float64{1.0},
		AreaWeights:  []float64{0.5},
		DecayRates:   []float64{0.95, 0.97},
	}
	cfg.Base.Iterations = 20

	off, err := Sweep(g, gt, cell.Builtin(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.AutoTune = true
	on, err := Sweep(g, gt, cell.Builtin(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(on) != len(off) {
		t.Fatalf("point count differs: %d vs %d", len(on), len(off))
	}
	for i := range on {
		if on[i].TrueDelayPS != off[i].TrueDelayPS || on[i].TrueAreaUM2 != off[i].TrueAreaUM2 {
			t.Fatalf("point %d ground truth differs: %+v vs %+v", i, on[i], off[i])
		}
		sameHistory(t, on[i].Result.History, off[i].Result.History)
	}
}

// trajectoryCanonical is the point's canonical form with the
// speculation counters (Evals, SpeculativeEvals) zeroed: the fields
// local and sharded suites must agree on whatever batch bounds each
// entry ran with.
func trajectoryCanonical(p SweepPoint) []byte {
	if p.Result != nil {
		r := *p.Result
		r.Evals, r.SpeculativeEvals = 0, 0
		p.Result = &r
	}
	return p.AppendCanonical(nil)
}

// An autotuned multi-entry suite tunes per entry locally but once,
// against the first entry, when sharded, so later entries may
// differ in their speculation counters. Trajectories, best graphs, and
// ground-truth metrics must still be identical between the two runs.
func TestSweepSuiteShardedAutoTuneTrajectories(t *testing.T) {
	lib := cell.Builtin()
	cfg := DefaultSweep
	cfg.Base.Seed = 1
	cfg.Base.Iterations = 4
	cfg.AreaWeights = []float64{0, 0.5}
	cfg.DecayRates = []float64{0.95}
	var entries []SuiteEntry
	for _, name := range []string{"EX02", "EX54"} {
		d, err := bench.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, SuiteEntry{Name: name, G: d.Build(), Eval: Proxy{}})
	}
	// Batch bounds follow the pilot's acceptance rate, a deterministic
	// function of (graph, evaluator, seed): these two entries tune to
	// different ceilings, which is the case under test.
	if b0, b1 := cfg.tunedBase(entries[0].G, entries[0].Eval), cfg.tunedBase(entries[1].G, entries[1].Eval); b0.BatchMax == b1.BatchMax {
		t.Fatalf("entries tune alike (batch ceiling %d); pick inputs that differ", b0.BatchMax)
	}
	local, err := SweepSuite(entries, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conns, wait := loopbackWorkers(2)
	sharded, _, err := SweepSuiteSharded(entries, lib, cfg, ShardOptions{Conns: conns})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	for e, ent := range entries {
		if len(sharded[e].Points) != len(local[e].Points) {
			t.Fatalf("entry %q: %d sharded points, %d local", ent.Name, len(sharded[e].Points), len(local[e].Points))
		}
		for i, lp := range local[e].Points {
			if !bytes.Equal(trajectoryCanonical(lp), trajectoryCanonical(sharded[e].Points[i])) {
				t.Fatalf("entry %q point %d: trajectory differs between local and sharded suite", ent.Name, i)
			}
		}
	}
}
