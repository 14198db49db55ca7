package flows

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"testing"

	"aigtimer/internal/anneal"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
)

// Ground-truth moves are rebased against their parent (aig.Builder.Rebase, via
// transform.Recipe.ApplyTracked), and the rebased node order is part of
// every ground-truth trajectory: it is an input to later moves and to
// the mapper's cut order. These pins catch a change
// that stops rebasing ground-truth moves, or stops recognizing
// GroundTruth as a rebasing evaluator, without needing the end-to-end
// benchmark to notice.

// pinnedEX08BestCost is EX08's best cost under bench-anneal's settings
// (40 iterations, seed 1): the repository's fixed point.
const pinnedEX08BestCost = 1.4323436208057263

// TestGroundTruthTrajectoryPinned runs EX08 with the ground-truth
// evaluator in the sequential-uncached and batched-cached
// configurations of `experiments bench-anneal`; both must reach the
// pinned best cost bit for bit.
func TestGroundTruthTrajectoryPinned(t *testing.T) {
	d, err := bench.ByName("EX08")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	lib := cell.Builtin()
	base := anneal.Params{
		Iterations: 40, StartTemp: 0.05, DecayRate: 0.97,
		DelayWeight: 1, AreaWeight: 0.5, Seed: 1,
	}
	sequential := base
	sequential.BatchSize, sequential.Workers, sequential.Chains = 1, 1, 1
	sequential.CacheMode = anneal.CacheOff
	batched := base
	batched.BatchSize = 4
	batched.CacheMode = anneal.CacheOn
	for _, c := range []struct {
		name string
		p    anneal.Params
	}{{"sequential-uncached", sequential}, {"batched-cached", batched}} {
		r, err := anneal.Run(g, NewGroundTruth(lib), c.p)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if math.Float64bits(r.BestCost) != math.Float64bits(pinnedEX08BestCost) {
			t.Errorf("%s: best cost %.17g, want %.17g", c.name, r.BestCost, pinnedEX08BestCost)
		}
	}
}

// pinnedEX54SweepDigest is the SHA-256 of the canonical form of a small
// autotuned ground-truth sweep of EX54, with each run's Evals and
// SpeculativeEvals zeroed: those two count speculative work, which
// follows the tuned batch bounds, while every other field is fixed by
// the trajectory. The digest is therefore the same at any GOMAXPROCS.
const pinnedEX54SweepDigest = "9336266c19d607ff9cf695b2b5ef280fc3e0675584f6deac667f5a212c2d82d7"

// TestGroundTruthSweepDigestPinned sweeps EX54 over three grid points
// at eight iterations with autotuning on and compares the digest.
func TestGroundTruthSweepDigestPinned(t *testing.T) {
	d, err := bench.ByName("EX54")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	lib := cell.Builtin()
	cfg := SweepConfig{
		Base:         anneal.DefaultParams,
		DelayWeights: []float64{1},
		AreaWeights:  []float64{0, 0.5, 1.8},
		DecayRates:   []float64{0.97},
		AutoTune:     true,
	}
	cfg.Base.Iterations = 8
	rs, err := SweepSuite([]SuiteEntry{{Name: d.Name, G: g, Eval: NewGroundTruth(lib)}}, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range rs[0].Points {
		r := *p.Result
		r.Evals, r.SpeculativeEvals = 0, 0
		p.Result = &r
		h.Write(p.AppendCanonical(nil))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != pinnedEX54SweepDigest {
		t.Errorf("sweep digest %s, want %s", got, pinnedEX54SweepDigest)
	}
}
