package transform

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aigtimer/internal/aig"
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
	return b.Build().Compact()
}

// checkEquiv asserts functional equivalence of g and h exhaustively.
func checkEquiv(t *testing.T, name string, g, h *aig.AIG) bool {
	t.Helper()
	if !aig.EquivalentExhaustive(g, h) {
		t.Errorf("%s changed function", name)
		return false
	}
	if h.DanglingCount() != 0 {
		t.Errorf("%s left %d dangling nodes", name, h.DanglingCount())
		return false
	}
	return true
}

func TestEveryTransformPreservesFunction(t *testing.T) {
	for _, tr := range Catalog() {
		tr := tr
		t.Run(tr.Name, func(t *testing.T) {
			prop := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				g := randomAIG(rng, 4+rng.Intn(7), 10+rng.Intn(90), 1+rng.Intn(5))
				h := tr.Fn(g, rng)
				return aig.EquivalentExhaustive(g, h) && h.DanglingCount() == 0
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestBalanceReducesDepthOfChain(t *testing.T) {
	// A linear AND chain of 8 inputs has 7 levels; balancing yields 3.
	b := aig.NewBuilder(8)
	out := b.PI(0)
	for i := 1; i < 8; i++ {
		out = b.And(out, b.PI(i))
	}
	b.AddPO(out)
	g := b.Build()
	if g.MaxLevel() != 7 {
		t.Fatalf("chain level = %d, want 7", g.MaxLevel())
	}
	rng := rand.New(rand.NewSource(1))
	h := Balance(g, rng)
	if !checkEquiv(t, "balance", g, h) {
		return
	}
	if h.MaxLevel() != 3 {
		t.Errorf("balanced level = %d, want 3", h.MaxLevel())
	}
}

func TestBalanceNeverIncreasesDepth(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAIG(rng, 5+rng.Intn(6), 20+rng.Intn(80), 2)
		h := Balance(g, rng)
		return h.MaxLevel() <= g.MaxLevel()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteReducesRedundantStructure(t *testing.T) {
	// Build f = (a·b) + (a·!b) = a, wastefully (without strash seeing it).
	b := aig.NewBuilder(3)
	x, y := b.PI(0), b.PI(1)
	t0 := b.And(x, y)
	t1 := b.And(x, y.Not())
	f := b.Or(t0, t1) // equals x, but structurally 3 nodes
	g2 := b.And(f, b.PI(2))
	b.AddPO(g2)
	g := b.Build()
	rng := rand.New(rand.NewSource(2))
	h := Rewrite(g, rng)
	if !checkEquiv(t, "rewrite", g, h) {
		return
	}
	if h.NumAnds() >= g.NumAnds() {
		t.Errorf("rewrite did not shrink: %d -> %d ands", g.NumAnds(), h.NumAnds())
	}
}

func TestRewriteNeverIncreasesNodes(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAIG(rng, 4+rng.Intn(6), 15+rng.Intn(80), 2)
		h := Rewrite(g, rng)
		return h.NumAnds() <= g.NumAnds()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRefactorReducesNodes(t *testing.T) {
	// Flat SOP of a function with a compact factored form:
	// f = a·c + a·d + b·c + b·d = (a+b)·(c+d).
	b := aig.NewBuilder(4)
	a, bb, c, d := b.PI(0), b.PI(1), b.PI(2), b.PI(3)
	f := b.OrN(b.And(a, c), b.And(a, d), b.And(bb, c), b.And(bb, d))
	b.AddPO(f)
	g := b.Build()
	rng := rand.New(rand.NewSource(3))
	h := Refactor(g, rng)
	if !checkEquiv(t, "refactor", g, h) {
		return
	}
	if h.NumAnds() >= g.NumAnds() {
		t.Errorf("refactor did not shrink: %d -> %d ands", g.NumAnds(), h.NumAnds())
	}
}

func TestMergeEquivMergesDuplicates(t *testing.T) {
	// Two structurally different but equivalent computations of XOR.
	b := aig.NewBuilder(2)
	x, y := b.PI(0), b.PI(1)
	xor1 := b.Or(b.And(x, y.Not()), b.And(x.Not(), y))
	// XOR via (x+y)·!(x·y)
	xor2 := b.And(b.Or(x, y), b.And(x, y).Not())
	b.AddPO(xor1)
	b.AddPO(xor2)
	g := b.Build()
	rng := rand.New(rand.NewSource(4))
	h := MergeEquiv(g, rng)
	if !checkEquiv(t, "fraig", g, h) {
		return
	}
	if h.NumAnds() >= g.NumAnds() {
		t.Errorf("fraig did not merge: %d -> %d ands", g.NumAnds(), h.NumAnds())
	}
	// Both POs must now share a driver node.
	if h.PO(0).Node() != h.PO(1).Node() {
		t.Errorf("outputs not merged: %v vs %v", h.PO(0), h.PO(1))
	}
}

func TestExpandAddsDiversity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomAIG(rng, 6, 60, 3)
	grew := false
	changed := false
	for i := 0; i < 8; i++ {
		h := Expand(g, rng)
		if h.NumAnds() > g.NumAnds() {
			grew = true
		}
		if h.Hash() != g.Hash() {
			changed = true
		}
	}
	if !changed {
		t.Errorf("expand never changed structure")
	}
	if !grew {
		t.Errorf("expand never grew the AIG (diversity move ineffective)")
	}
}

func TestRecipesCatalog(t *testing.T) {
	rs := Recipes()
	if len(rs) != NumRecipes {
		t.Fatalf("catalog size = %d, want %d", len(rs), NumRecipes)
	}
	names := map[string]bool{}
	for _, r := range rs {
		if names[r.Name] {
			t.Errorf("duplicate recipe name %q", r.Name)
		}
		names[r.Name] = true
		if len(r.Steps) == 0 {
			t.Errorf("recipe %q empty", r.Name)
		}
		for _, s := range r.Steps {
			if _, ok := Named(s); !ok {
				t.Errorf("recipe %q references unknown step %q", r.Name, s)
			}
		}
	}
	// Catalog must be deterministic across calls.
	rs2 := Recipes()
	for i := range rs {
		if rs[i].String() != rs2[i].String() {
			t.Fatalf("catalog not deterministic at %d", i)
		}
	}
}

func TestRecipeApplyPreservesFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	g := randomAIG(rng, 8, 100, 4)
	for _, r := range Recipes()[:20] {
		h := r.Apply(g, rng)
		if !aig.EquivalentExhaustive(g, h) {
			t.Fatalf("recipe %q changed function", r.Name)
		}
	}
}

func TestRecipeVariety(t *testing.T) {
	// Applying different random recipes must generate many distinct
	// structures — the precondition for the paper's 40k-variant datasets.
	rng := rand.New(rand.NewSource(7))
	g := randomAIG(rng, 8, 120, 4)
	rs := Recipes()
	seen := map[uint64]bool{}
	cur := g
	for i := 0; i < 30; i++ {
		r := rs[rng.Intn(len(rs))]
		cur = r.Apply(cur, rng)
		seen[cur.Hash()] = true
	}
	if len(seen) < 10 {
		t.Errorf("only %d distinct AIGs out of 30 recipe applications", len(seen))
	}
}

func TestNamedLookup(t *testing.T) {
	if _, ok := Named("rw"); !ok {
		t.Error("rw missing")
	}
	if _, ok := Named("nonsense"); ok {
		t.Error("phantom transform")
	}
}

func TestConeSavingsSimple(t *testing.T) {
	// n3 = (a·b)·c, with a·b having no other fanout: replacing n3 over
	// leaves {a,b,c} saves both nodes.
	b := aig.NewBuilder(3)
	n1 := b.And(b.PI(0), b.PI(1))
	n3 := b.And(n1, b.PI(2))
	b.AddPO(n3)
	g := b.Build()
	fo := g.FanoutCounts()
	if got := new(savings).bind(g).compute(n3.Node(), []int32{1, 2, 3}, fo); got != 2 {
		t.Errorf("coneSavings = %d, want 2", got)
	}
	// With n1 shared externally, only n3 is saved.
	b2 := aig.NewBuilder(3)
	m1 := b2.And(b2.PI(0), b2.PI(1))
	m3 := b2.And(m1, b2.PI(2))
	b2.AddPO(m3)
	b2.AddPO(m1)
	g2 := b2.Build()
	fo2 := g2.FanoutCounts()
	if got := new(savings).bind(g2).compute(m3.Node(), []int32{1, 2, 3}, fo2); got != 1 {
		t.Errorf("coneSavings shared = %d, want 1", got)
	}
}
