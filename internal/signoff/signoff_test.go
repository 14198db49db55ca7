package signoff

import (
	"math/rand"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/eval"
	"aigtimer/internal/sta"
	"aigtimer/internal/techmap"
)

func randomAIG(rng *rand.Rand, numPIs, numAnds, numPOs int) *aig.AIG {
	b := aig.NewBuilder(numPIs)
	lits := make([]aig.Lit, 0, numPIs+numAnds)
	for i := 0; i < numPIs; i++ {
		lits = append(lits, b.PI(i))
	}
	for len(lits) < numPIs+numAnds {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		c := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, b.And(a, c))
	}
	for i := 0; i < numPOs; i++ {
		b.AddPO(lits[len(lits)-1-rng.Intn(40)])
	}
	return b.Build().Compact()
}

func TestEvaluateBeatsOrMatchesSingleEffort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lib := cell.Builtin()
	for i := 0; i < 8; i++ {
		g := randomAIG(rng, 8, 150, 4)
		r, _, err := freshState(g, lib)
		if err != nil {
			t.Fatal(err)
		}
		// Single default-effort pipeline for comparison.
		nl, err := new(techmap.Mapper).Map(g, lib, techmap.DefaultParams, new(cut.Enumerator).Enumerate(g, cut.DefaultParams), nil)
		if err != nil {
			t.Fatal(err)
		}
		sr, err := sta.Signoff(nl, sta.SignoffParams{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if r.DelayPS > sr.WorstDelayPS+1e-9 {
			t.Fatalf("dual-effort evaluate worse than single: %.1f vs %.1f", r.DelayPS, sr.WorstDelayPS)
		}
	}
}

func TestEvaluateDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	lib := cell.Builtin()
	g := randomAIG(rng, 8, 120, 4)
	r1, _, err := freshState(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	r2, _, err := freshState(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	if r1.DelayPS != r2.DelayPS || r1.AreaUM2 != r2.AreaUM2 {
		t.Fatalf("nondeterministic: %+v vs %+v", r1, r2)
	}
	if r1.Corner == "" || r1.Netlist == nil {
		t.Fatalf("missing fields: %+v", r1)
	}
}

func TestEvaluatePreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	lib := cell.Builtin()
	g := randomAIG(rng, 6, 80, 3)
	r, _, err := freshState(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	// The chosen netlist must implement g.
	pats := aig.ExhaustivePatterns(g.NumPIs())
	res := g.Simulate(pats)
	in := make([]bool, g.NumPIs())
	for m := 0; m < 1<<g.NumPIs(); m++ {
		for i := range in {
			in[i] = m>>i&1 == 1
		}
		got := r.Netlist.Eval(in)
		for i := 0; i < g.NumPOs(); i++ {
			v := res.LitValues(g.PO(i))
			if got[i] != (v[m/64]>>(m%64)&1 == 1) {
				t.Fatalf("netlist differs from AIG at minterm %d PO %d", m, i)
			}
		}
	}
}

// TestEvaluateBatchMatchesSequential: a batch evaluated concurrently
// through one shared Pool (the ground-truth oracle's batch path) must
// agree with sequential Evaluate calls, in input order, at any worker
// count — recycled storage never leaks between concurrent evaluations.
func TestEvaluateBatchMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lib := cell.Builtin()
	gs := make([]*aig.AIG, 5)
	want := make([]Result, len(gs))
	for i := range gs {
		gs[i] = randomAIG(rng, 7, 100, 3)
		r, _, err := freshState(gs[i], lib)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r
	}
	var pool Pool
	for _, workers := range []int{0, 1, 3, 16} {
		rs := make([]Result, len(gs))
		errs := make([]error, len(gs))
		eval.ForEach(len(gs), workers, func(i int) {
			r, st, err := pool.Evaluate(gs[i], lib)
			if err == nil {
				r.Netlist = nil // recycled by Release; only the metrics are compared
				st.Release()
			}
			rs[i], errs[i] = r, err
		})
		for i := range gs {
			if errs[i] != nil {
				t.Fatalf("workers=%d: batch[%d] error: %v", workers, i, errs[i])
			}
			if rs[i].DelayPS != want[i].DelayPS || rs[i].AreaUM2 != want[i].AreaUM2 || rs[i].Corner != want[i].Corner {
				t.Fatalf("workers=%d: batch[%d] = %+v, want %+v", workers, i, rs[i], want[i])
			}
		}
	}
}

// TestEvaluateStateMatchesPerEffortMapping asserts the dual-effort cut
// reuse is invisible: Pool.Evaluate (one shared EnumerateDual pass)
// must produce the same metrics, the same governing corner, and
// gate-for-gate the same netlist as mapping each effort over its own
// independent enumeration, with a new Mapper, and timing it.
func TestEvaluateStateMatchesPerEffortMapping(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lib := cell.Builtin()
	efforts := []struct {
		cuts cut.Params
		tm   techmap.Params
	}{
		{cut.DefaultParams, techmap.DefaultParams},
		{cut.Params{K: 4, MaxCuts: 24}, techmap.Params{NominalLoadFF: 6.0, AreaRecovery: true}},
	}
	var pool Pool
	for i := 0; i < 6; i++ {
		g := randomAIG(rng, 8, 160, 4)
		got, st, err := pool.Evaluate(g, lib)
		if err != nil {
			t.Fatal(err)
		}
		want := Result{}
		for ei, e := range efforts {
			nl, err := new(techmap.Mapper).Map(g, lib, e.tm, new(cut.Enumerator).Enumerate(g, e.cuts), nil)
			if err != nil {
				t.Fatal(err)
			}
			sr, err := sta.Signoff(nl, sta.SignoffParams{}, nil)
			if err != nil {
				t.Fatal(err)
			}
			want = pick(want, ei, nl, sr)
			// Each effort's mapping inside the state must match too, not
			// only the one that won.
			stNl := st.nls[ei]
			if len(stNl.Gates) != len(nl.Gates) {
				t.Fatalf("graph %d effort %d: %d vs %d gates", i, ei, len(stNl.Gates), len(nl.Gates))
			}
			for gi := range nl.Gates {
				a, b := stNl.Gates[gi], nl.Gates[gi]
				if a.Cell != b.Cell || len(a.Inputs) != len(b.Inputs) {
					t.Fatalf("graph %d effort %d gate %d differs", i, ei, gi)
				}
				for j := range a.Inputs {
					if a.Inputs[j] != b.Inputs[j] {
						t.Fatalf("graph %d effort %d gate %d input %d differs", i, ei, gi, j)
					}
				}
			}
		}
		if got.DelayPS != want.DelayPS || got.AreaUM2 != want.AreaUM2 || got.Corner != want.Corner {
			t.Fatalf("graph %d: shared-pass result (%v %v %s) vs independent (%v %v %s)",
				i, got.DelayPS, got.AreaUM2, got.Corner, want.DelayPS, want.AreaUM2, want.Corner)
		}
		st.Release()
	}
}
