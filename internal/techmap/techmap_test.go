package techmap

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/netlist"
	"aigtimer/internal/sta"
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
		b.AddPO(lits[len(lits)-1-rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0))
	}
	return b.Build()
}

// mapFresh maps g at p over cuts enumerated at cp, with a new Mapper
// and a new cut.Enumerator.
func mapFresh(g *aig.AIG, lib *cell.Library, p Params, cp cut.Params) (*netlist.Netlist, error) {
	return new(Mapper).Map(g, lib, p, new(cut.Enumerator).Enumerate(g, cp), nil)
}

// equivalentMapped exhaustively compares AIG and netlist functions.
func equivalentMapped(t *testing.T, g *aig.AIG, nlEval func([]bool) []bool) bool {
	t.Helper()
	pats := aig.ExhaustivePatterns(g.NumPIs())
	res := g.Simulate(pats)
	nBits := 1 << g.NumPIs()
	piBits := make([]bool, g.NumPIs())
	for m := 0; m < nBits; m++ {
		for i := range piBits {
			piBits[i] = m>>i&1 == 1
		}
		got := nlEval(piBits)
		for i := 0; i < g.NumPOs(); i++ {
			v := res.LitValues(g.PO(i))
			want := v[m/64]>>(m%64)&1 == 1
			if got[i] != want {
				t.Logf("mismatch at minterm %d PO %d: netlist=%v aig=%v", m, i, got[i], want)
				return false
			}
		}
	}
	return true
}

func TestMapSimpleFunctions(t *testing.T) {
	lib := cell.Builtin()
	b := aig.NewBuilder(4)
	and := b.And(b.PI(0), b.PI(1))
	or := b.Or(b.PI(2), b.PI(3))
	xor := b.Xor(b.PI(0), b.PI(2))
	b.AddPO(and)
	b.AddPO(or)
	b.AddPO(xor)
	b.AddPO(and.Not())
	g := b.Build()

	nl, err := mapFresh(g, lib, DefaultParams, cut.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalentMapped(t, g, nl.Eval) {
		t.Fatal("mapped netlist not equivalent")
	}
	// XOR should map to a single XOR cell rather than 4 NANDs when delay
	// allows; at minimum the netlist must be small.
	if nl.NumGates() > 12 {
		t.Errorf("suspiciously large netlist: %d gates", nl.NumGates())
	}
}

func TestMapConstantsAndPassthrough(t *testing.T) {
	lib := cell.Builtin()
	b := aig.NewBuilder(2)
	b.AddPO(aig.ConstFalse)
	b.AddPO(aig.ConstTrue)
	b.AddPO(b.PI(0))
	b.AddPO(b.PI(1).Not())
	g := b.Build()
	nl, err := mapFresh(g, lib, DefaultParams, cut.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalentMapped(t, g, nl.Eval) {
		t.Fatal("constant/passthrough mapping wrong")
	}
	// Expect exactly: TIE0, TIE1, INV -> 3 gates.
	if nl.NumGates() != 3 {
		t.Errorf("gates = %d, want 3", nl.NumGates())
	}
}

func TestPropertyMappingPreservesFunction(t *testing.T) {
	lib := cell.Builtin()
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAIG(rng, 3+rng.Intn(6), 5+rng.Intn(60), 1+rng.Intn(5))
		nl, err := mapFresh(g, lib, DefaultParams, cut.DefaultParams)
		if err != nil {
			return false
		}
		return equivalentMapped(t, g, nl.Eval)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestAreaRecoveryDoesNotHurtDelayMuch(t *testing.T) {
	lib := cell.Builtin()
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 10; i++ {
		g := randomAIG(rng, 8, 120, 6)
		pDelay := DefaultParams
		pDelay.AreaRecovery = false
		pArea := DefaultParams
		pArea.AreaRecovery = true

		nlD, err := mapFresh(g, lib, pDelay, cut.DefaultParams)
		if err != nil {
			t.Fatal(err)
		}
		nlA, err := mapFresh(g, lib, pArea, cut.DefaultParams)
		if err != nil {
			t.Fatal(err)
		}
		if !equivalentMapped(t, g, nlA.Eval) {
			t.Fatal("area recovery broke function")
		}
		if nlA.AreaUM2() > nlD.AreaUM2()*1.001 {
			t.Errorf("area recovery increased area: %.2f -> %.2f", nlD.AreaUM2(), nlA.AreaUM2())
		}
		rD := sta.Analyze(nlD)
		rA := sta.Analyze(nlA)
		// The nominal-load model is approximate, so allow modest drift,
		// but area recovery must not blow up the real delay.
		if rA.MaxDelayPS > rD.MaxDelayPS*1.35+50 {
			t.Errorf("area recovery hurt delay too much: %.1f -> %.1f ps", rD.MaxDelayPS, rA.MaxDelayPS)
		}
	}
}

func TestMapperUsesComplexCells(t *testing.T) {
	lib := cell.Builtin()
	rng := rand.New(rand.NewSource(23))
	g := randomAIG(rng, 8, 200, 6)
	nl, err := mapFresh(g, lib, DefaultParams, cut.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	multiInput := 0
	for _, h := range nl.CellHistogram() {
		c := lib.CellByName(h.Name)
		if c != nil && c.NumInputs >= 3 {
			multiInput += h.Count
		}
	}
	if multiInput == 0 {
		t.Errorf("mapper never used 3/4-input cells; histogram: %+v", nl.CellHistogram())
	}
	// Mapping must compress depth relative to the AIG (cell merging), the
	// paper's first source of proxy miscorrelation.
	if d := nl.LogicDepth(); d > int(g.MaxLevel()) {
		t.Errorf("mapped depth %d exceeds AIG levels %d", d, g.MaxLevel())
	}
}

func TestMapParamsDefaults(t *testing.T) {
	lib := cell.Builtin()
	rng := rand.New(rand.NewSource(29))
	g := randomAIG(rng, 5, 30, 3)
	nl, err := mapFresh(g, lib, Params{}, cut.DefaultParams)
	if err != nil {
		t.Fatal(err)
	}
	if !equivalentMapped(t, g, nl.Eval) {
		t.Fatal("default-params mapping wrong")
	}
	// A zero NominalLoadFF selects the default load; a zero AreaRecovery
	// leaves recovery off. The graph is large enough for recovery to
	// change the area.
	big := randomAIG(rand.New(rand.NewSource(30)), 8, 200, 4)
	area := func(p Params) float64 {
		t.Helper()
		nl, err := mapFresh(big, lib, p, cut.DefaultParams)
		if err != nil {
			t.Fatal(err)
		}
		return nl.AreaUM2()
	}
	zero, load := area(Params{}), area(Params{NominalLoadFF: DefaultParams.NominalLoadFF})
	if zero != load {
		t.Errorf("Params{} maps to %.2f um2, {NominalLoadFF: %v} to %.2f", zero, DefaultParams.NominalLoadFF, load)
	}
	rec, def := area(Params{AreaRecovery: true}), area(DefaultParams)
	if rec != def {
		t.Errorf("{AreaRecovery: true} maps to %.2f um2, DefaultParams to %.2f", rec, def)
	}
	if zero == def {
		t.Errorf("area recovery changed nothing (%.2f um2): the graph no longer tells the settings apart", zero)
	}
}

func TestMapSmallCutBudget(t *testing.T) {
	lib := cell.Builtin()
	rng := rand.New(rand.NewSource(31))
	g := randomAIG(rng, 6, 80, 4)
	nl, err := mapFresh(g, lib, DefaultParams, cut.Params{K: 2, MaxCuts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !equivalentMapped(t, g, nl.Eval) {
		t.Fatal("k=2 mapping wrong")
	}
}
