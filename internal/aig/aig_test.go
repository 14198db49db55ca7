package aig

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLitBasics(t *testing.T) {
	l := MakeLit(5, false)
	if l.Node() != 5 || l.IsCompl() {
		t.Fatalf("MakeLit(5,false) = %v", l)
	}
	if l.Not().Node() != 5 || !l.Not().IsCompl() {
		t.Fatalf("Not() wrong: %v", l.Not())
	}
	if l.Not().Not() != l {
		t.Fatalf("double complement not identity")
	}
	if l.NotIf(false) != l || l.NotIf(true) != l.Not() {
		t.Fatalf("NotIf wrong")
	}
	if l.Not().Regular() != l {
		t.Fatalf("Regular wrong")
	}
	if !ConstFalse.IsConst() || !ConstTrue.IsConst() || l.IsConst() {
		t.Fatalf("IsConst wrong")
	}
	if ConstFalse.Not() != ConstTrue {
		t.Fatalf("ConstFalse.Not() != ConstTrue")
	}
}

func TestBuilderTrivialCases(t *testing.T) {
	b := NewBuilder(2)
	a, c := b.PI(0), b.PI(1)
	if got := b.And(a, ConstFalse); got != ConstFalse {
		t.Errorf("a·0 = %v, want const false", got)
	}
	if got := b.And(a, ConstTrue); got != a {
		t.Errorf("a·1 = %v, want a", got)
	}
	if got := b.And(a, a); got != a {
		t.Errorf("a·a = %v, want a", got)
	}
	if got := b.And(a, a.Not()); got != ConstFalse {
		t.Errorf("a·!a = %v, want const false", got)
	}
	if b.NumAnds() != 0 {
		t.Errorf("trivial cases created %d nodes", b.NumAnds())
	}
	x := b.And(a, c)
	y := b.And(c, a)
	if x != y {
		t.Errorf("strash failed: And(a,c)=%v And(c,a)=%v", x, y)
	}
	if b.NumAnds() != 1 {
		t.Errorf("want 1 AND node, got %d", b.NumAnds())
	}
}

func TestBuilderDerivedOps(t *testing.T) {
	b := NewBuilder(3)
	x, y, z := b.PI(0), b.PI(1), b.PI(2)
	or := b.Or(x, y)
	xor := b.Xor(x, y)
	xnor := b.Xnor(x, y)
	mux := b.Mux(x, y, z)
	maj := b.Maj(x, y, z)
	b.AddPO(or)
	b.AddPO(xor)
	b.AddPO(xnor)
	b.AddPO(mux)
	b.AddPO(maj)
	g := b.Build()

	pats := ExhaustivePatterns(3)
	res := g.Simulate(pats)
	// Enumerate all 8 input combinations, check each PO bit.
	for m := 0; m < 8; m++ {
		xv := m&1 != 0
		yv := m&2 != 0
		zv := m&4 != 0
		want := []bool{
			xv || yv,
			xv != yv,
			xv == yv,
			(xv && yv) || (!xv && zv),
			(xv && yv) || (xv && zv) || (yv && zv),
		}
		for i, wv := range want {
			bits := res.LitValues(g.PO(i))
			got := bits[m/64]>>(m%64)&1 == 1
			if got != wv {
				t.Errorf("PO %d at minterm %d: got %v want %v", i, m, got, wv)
			}
		}
	}
}

func TestLevelsAndFanout(t *testing.T) {
	b := NewBuilder(4)
	n1 := b.And(b.PI(0), b.PI(1))
	n2 := b.And(b.PI(2), b.PI(3))
	n3 := b.And(n1, n2)
	n4 := b.And(n3, b.PI(0))
	b.AddPO(n4)
	b.AddPO(n1)
	g := b.Build()

	lv := g.Levels()
	if lv[n1.Node()] != 1 || lv[n2.Node()] != 1 || lv[n3.Node()] != 2 || lv[n4.Node()] != 3 {
		t.Fatalf("levels wrong: %v", lv)
	}
	if g.MaxLevel() != 3 {
		t.Fatalf("MaxLevel = %d, want 3", g.MaxLevel())
	}
	fo := g.FanoutCounts()
	if fo[g.PI(0).Node()] != 2 {
		t.Errorf("PI0 fanout = %d, want 2", fo[g.PI(0).Node()])
	}
	if fo[n1.Node()] != 2 { // used by n3 and as PO
		t.Errorf("n1 fanout = %d, want 2", fo[n1.Node()])
	}
	if fo[n4.Node()] != 1 {
		t.Errorf("n4 fanout = %d, want 1", fo[n4.Node()])
	}
}

func TestCompactRemovesDangling(t *testing.T) {
	b := NewBuilder(3)
	used := b.And(b.PI(0), b.PI(1))
	_ = b.And(b.PI(1), b.PI(2)) // dangling
	b.AddPO(used)
	g := b.Build()
	if g.NumAnds() != 2 {
		t.Fatalf("setup: want 2 ands, got %d", g.NumAnds())
	}
	if g.DanglingCount() != 1 {
		t.Fatalf("DanglingCount = %d, want 1", g.DanglingCount())
	}
	cg := g.Compact()
	if cg.NumAnds() != 1 {
		t.Fatalf("Compact left %d ands, want 1", cg.NumAnds())
	}
	if cg.DanglingCount() != 0 {
		t.Fatalf("Compact left dangling nodes")
	}
	if !EquivalentExhaustive(g, cg) {
		t.Fatalf("Compact changed function")
	}
}

// randomAIG builds a random DAG AIG for property tests.
func randomAIG(rng *rand.Rand, numPIs, numAnds, numPOs int) *AIG {
	b := NewBuilder(numPIs)
	lits := make([]Lit, 0, numPIs+numAnds)
	for i := 0; i < numPIs; i++ {
		lits = append(lits, b.PI(i))
	}
	for len(lits) < numPIs+numAnds {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		c := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		l := b.And(a, c)
		lits = append(lits, l)
	}
	for i := 0; i < numPOs; i++ {
		b.AddPO(lits[len(lits)-1-rng.Intn(min(len(lits), numAnds+1))].NotIf(rng.Intn(2) == 0))
	}
	return b.Build()
}

func TestPropertyCompactPreservesFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAIG(rng, 3+rng.Intn(6), 5+rng.Intn(60), 1+rng.Intn(5))
		cg := g.Compact()
		if cg.NumAnds() > g.NumAnds() {
			return false
		}
		return EquivalentExhaustive(g, cg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyRoundTripText(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAIG(rng, 2+rng.Intn(8), 1+rng.Intn(80), 1+rng.Intn(4))
		var sb strings.Builder
		if err := g.WriteText(&sb); err != nil {
			return false
		}
		g2, err := ParseString(sb.String())
		if err != nil {
			return false
		}
		if g2.NumPIs() != g.NumPIs() || g2.NumPOs() != g.NumPOs() {
			return false
		}
		return EquivalentExhaustive(g, g2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySignatureStableUnderCompact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAIG(rng, 3+rng.Intn(10), 10+rng.Intn(100), 1+rng.Intn(6))
		return g.Signature(4, 42) == g.Compact().Signature(4, 42)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestExhaustivePatterns(t *testing.T) {
	for _, n := range []int{1, 3, 6, 7, 9} {
		pats := ExhaustivePatterns(n)
		if len(pats) != n {
			t.Fatalf("n=%d: got %d rows", n, len(pats))
		}
		nBits := 1 << n
		for v := 0; v < n; v++ {
			for m := 0; m < nBits; m++ {
				want := m>>v&1 == 1
				got := pats[v][m/64]>>(m%64)&1 == 1
				if got != want {
					t.Fatalf("n=%d var=%d minterm=%d: got %v want %v", n, v, m, got, want)
				}
			}
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"not a header",
		"aag 1 1 0 1",                    // too few fields
		"aag 2 1 1 1 1\n2\n4 2 2\n",      // latches
		"aag 5 1 0 1 1\n2\n4 2 2\n",      // inconsistent header
		"aag 2 1 0 1 1\n2\n5 2 2\n",      // complemented AND output
		"aag 2 1 0 1 1\n2\n4 9 2\n",      // literal out of range
		"aag 3 1 0 1 2\n2\n4 6 2\n6 2 2", // forward reference
	}
	for _, c := range cases {
		if _, err := ParseString(c); err == nil {
			t.Errorf("ParseString(%q) succeeded, want error", c)
		}
	}
}

func TestPOCones(t *testing.T) {
	// PO0 = (a·b)·(c·d): 3 ands, depth 2, support 4, 4 paths.
	// PO1 = a: 0 ands, depth 0, support 1, 1 path.
	b := NewBuilder(4)
	n1 := b.And(b.PI(0), b.PI(1))
	n2 := b.And(b.PI(2), b.PI(3))
	n3 := b.And(n1, n2)
	b.AddPO(n3)
	b.AddPO(b.PI(0))
	g := b.Build()
	cones := g.POCones()
	if cones[0].Ands != 3 || cones[0].Depth != 2 || cones[0].Supports != 4 || cones[0].PathCount != 4 {
		t.Errorf("cone 0 = %+v", cones[0])
	}
	if cones[1].Ands != 0 || cones[1].Depth != 0 || cones[1].Supports != 1 || cones[1].PathCount != 1 {
		t.Errorf("cone 1 = %+v", cones[1])
	}
}

func TestHashDiscriminatesAndIsStable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g1 := randomAIG(rng, 5, 40, 3)
	if g1.Hash() != g1.Hash() {
		t.Fatalf("hash not deterministic")
	}
	if g1.Hash() != g1.Copy().Hash() {
		t.Fatalf("copy changed hash")
	}
	g2 := randomAIG(rng, 5, 40, 3)
	if g1.Hash() == g2.Hash() {
		t.Errorf("different random AIGs hashed equal (suspicious)")
	}
}

func TestSimulateRejectsBadInput(t *testing.T) {
	b := NewBuilder(2)
	b.AddPO(b.And(b.PI(0), b.PI(1)))
	g := b.Build()
	mustPanic(t, func() { g.Simulate([][]uint64{{1}}) })
	mustPanic(t, func() { g.Simulate([][]uint64{{1}, {1, 2}}) })
	mustPanic(t, func() { g.PI(5) })
	mustPanic(t, func() { ExhaustivePatterns(17) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
