package truth

import (
	"math/rand"
	"testing"
	"testing/quick"

	"aigtimer/internal/aig"
)

func randTT(rng *rand.Rand, n int) TT {
	t := New(n)
	for i := range t.W {
		t.W[i] = rng.Uint64()
	}
	t.maskTop()
	return t
}

func TestVarAndCofactor(t *testing.T) {
	for n := 1; n <= 9; n++ {
		for v := 0; v < n; v++ {
			vt := Var(n, v)
			for m := 0; m < 1<<n; m++ {
				want := m>>v&1 == 1
				if vt.Bit(m) != want {
					t.Fatalf("Var(%d,%d) bit %d = %v want %v", n, v, m, vt.Bit(m), want)
				}
			}
			if !vt.Cofactor(v, true).IsOne() {
				t.Errorf("Var(%d,%d) positive cofactor not 1", n, v)
			}
			if !vt.Cofactor(v, false).IsZero() {
				t.Errorf("Var(%d,%d) negative cofactor not 0", n, v)
			}
		}
	}
}

func TestCofactorShannon(t *testing.T) {
	// f = x_v·f1 + !x_v·f0 must reconstruct f, for random tables.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		tt := randTT(rng, n)
		for v := 0; v < n; v++ {
			f0 := tt.Cofactor(v, false)
			f1 := tt.Cofactor(v, true)
			vt := Var(n, v)
			rec := vt.And(f1).Or(vt.Not().And(f0))
			if !rec.Equal(tt) {
				return false
			}
			if f0.DependsOn(v) || f1.DependsOn(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestDependsOnMatchesCofactors checks the in-place dependency test
// against its definition, on random tables and on tables made
// independent of some variables by cofactoring.
func TestDependsOnMatchesCofactors(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(10)
		tt := randTT(rng, n)
		for v := 0; v < n; v++ {
			if rng.Intn(3) == 0 {
				tt = tt.Cofactor(v, rng.Intn(2) == 0)
			}
		}
		for v := 0; v < n; v++ {
			want := !tt.Cofactor(v, false).Equal(tt.Cofactor(v, true))
			if got := tt.DependsOn(v); got != want {
				t.Fatalf("%v: DependsOn(%d) = %v, want %v", tt, v, got, want)
			}
		}
	}
	wide := Var(8, 7)
	if a := testing.AllocsPerRun(10, func() { wide.DependsOn(7) }); a != 0 {
		t.Errorf("DependsOn allocated %v times per call", a)
	}
}

func TestSupport(t *testing.T) {
	n := 5
	f := Var(n, 1).And(Var(n, 3)) // depends on 1 and 3 only
	sup := f.Support()
	if len(sup) != 2 || sup[0] != 1 || sup[1] != 3 {
		t.Fatalf("Support = %v, want [1 3]", sup)
	}
	if !Const(n, true).IsOne() || !Const(n, false).IsZero() {
		t.Fatalf("constants wrong")
	}
	if len(Const(n, true).Support()) != 0 {
		t.Fatalf("constant has support")
	}
}

func TestCountOnes(t *testing.T) {
	if got := Var(4, 0).CountOnes(); got != 8 {
		t.Errorf("Var(4,0).CountOnes = %d want 8", got)
	}
	if got := Const(3, true).CountOnes(); got != 8 {
		t.Errorf("Const(3,true).CountOnes = %d want 8", got)
	}
	if got := Var(7, 6).CountOnes(); got != 64 {
		t.Errorf("Var(7,6).CountOnes = %d want 64", got)
	}
}

func TestISOPCoversFunction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(7)
		tt := randTT(rng, n)
		cv := new(Synth).ISOP(tt, tt)
		return cv.TT(n).Equal(tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestISOPWithDontCares(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		on := randTT(rng, n)
		dc := randTT(rng, n)
		L := on.AndNot(dc)
		U := on.Or(dc)
		cv := new(Synth).ISOP(L, U)
		g := cv.TT(n)
		// L ⊆ g ⊆ U
		return L.AndNot(g).IsZero() && g.AndNot(U).IsZero()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestISOPConstants(t *testing.T) {
	var s Synth
	if cv := s.ISOP(New(4), New(4)); len(cv) != 0 {
		t.Errorf("ISOP(0) = %v, want empty", cv)
	}
	one := Const(4, true)
	cv := s.ISOP(one, one)
	if len(cv) != 1 || cv[0].Mask != 0 {
		t.Errorf("ISOP(1) = %v, want tautology cube", cv)
	}
	mustPanicT(t, func() { s.ISOP(one, New(4)) })
}

func TestCubeOps(t *testing.T) {
	c := Cube{}
	c = c.WithLit(2, true).WithLit(0, false)
	if c.NumLits() != 2 || !c.Has(2) || !c.Positive(2) || !c.Has(0) || c.Positive(0) {
		t.Fatalf("cube ops wrong: %+v", c)
	}
	if got := c.String(); got != "!ac" {
		t.Errorf("String = %q", got)
	}
	c = c.WithoutLit(2)
	if c.NumLits() != 1 || c.Has(2) {
		t.Fatalf("WithoutLit wrong: %+v", c)
	}
	if (Cube{}).String() != "1" {
		t.Errorf("tautology cube string wrong")
	}
}

func TestFactorIntoMatchesCover(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		tt := randTT(rng, n)
		var s Synth
		cv := s.ISOP(tt, tt)
		b := aig.NewBuilder(n)
		ins := make([]aig.Lit, n)
		for i := range ins {
			ins[i] = b.PI(i)
		}
		out := s.factor(b, ins, 0, len(cv))
		b.AddPO(out)
		g := b.Build()
		// Compare against direct truth-table evaluation.
		pats := aig.ExhaustivePatterns(n)
		res := g.Simulate(pats)
		v := res.LitValues(g.PO(0))
		for m := 0; m < 1<<n; m++ {
			got := v[m/64]>>(m%64)&1 == 1
			if got != tt.Bit(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeTT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		tt := randTT(rng, n)
		b := aig.NewBuilder(n)
		ins := make([]aig.Lit, n)
		for i := range ins {
			ins[i] = b.PI(i)
		}
		out := new(Synth).Synthesize(b, ins, tt)
		b.AddPO(out)
		g := b.Build()
		pats := aig.ExhaustivePatterns(n)
		res := g.Simulate(pats)
		v := res.LitValues(g.PO(0))
		for m := 0; m < 1<<n; m++ {
			if (v[m/64]>>(m%64)&1 == 1) != tt.Bit(m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestSynthesizeTTConstants(t *testing.T) {
	b := aig.NewBuilder(3)
	ins := []aig.Lit{b.PI(0), b.PI(1), b.PI(2)}
	var s Synth
	if got := s.Synthesize(b, ins, New(3)); got != aig.ConstFalse {
		t.Errorf("const 0 = %v", got)
	}
	if got := s.Synthesize(b, ins, Const(3, true)); got != aig.ConstTrue {
		t.Errorf("const 1 = %v", got)
	}
	if b.NumAnds() != 0 {
		t.Errorf("constants created nodes")
	}
}

func TestTransformPinsIdentity(t *testing.T) {
	f := func(raw uint16) bool {
		g := TransformPins(raw, 4, []int{0, 1, 2, 3}, 0)
		return g == raw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTransformPinsInversion(t *testing.T) {
	// AND2 over pins 0,1: f = 0x8 padded. Inverting pin 0 gives !a·b.
	and2 := PadTo4(0x8, 2)
	g := TransformPins(and2, 2, []int{0, 1}, 0b01)
	// !a·b over 2 vars: minterm 2 (a=0,b=1) only -> 0x4 padded.
	want := PadTo4(0x4, 2)
	if g != want {
		t.Fatalf("inverted AND2 = %04x, want %04x", g, want)
	}
	// Swapping pins of a symmetric function is a no-op.
	if TransformPins(and2, 2, []int{1, 0}, 0) != and2 {
		t.Errorf("AND2 not symmetric under swap")
	}
}

func TestTransformPinsPermutation(t *testing.T) {
	// f = a (projection of var 0) over 2 vars: 0b1010 -> 0xA.
	fa := PadTo4(0xA, 2)
	fb := PadTo4(0xC, 2) // projection of var 1
	// Rewire pin 0 to variable 1: g(x0,x1) = f(x1) = x1.
	if got := TransformPins(fa, 2, []int{1, 0}, 0); got != fb {
		t.Fatalf("perm wrong: got %04x want %04x", got, fb)
	}
}

func TestCanon4Invariance(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 50; i++ {
		f := uint16(rng.Uint32())
		cf, _ := Canon4(f)
		// Canonical form must be invariant under any NPN transform of f.
		pi := rng.Intn(24)
		inv := uint16(rng.Intn(16))
		g := TransformPins(f, 4, Perms4[pi][:], inv)
		if rng.Intn(2) == 1 {
			g = ^g
		}
		cg, _ := Canon4(g)
		if cf != cg {
			t.Fatalf("NPN class split: f=%04x g=%04x canon %04x vs %04x", f, g, cf, cg)
		}
	}
}

func TestCanon4ConfigReproduces(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 50; i++ {
		f := uint16(rng.Uint32())
		cf, cfg := Canon4(f)
		g := TransformPins(f, 4, cfg.Perm[:], cfg.InInv)
		if cfg.OutInv {
			g = ^g
		}
		if g != cf {
			t.Fatalf("config does not reproduce canon: f=%04x got %04x want %04x", f, g, cf)
		}
	}
}

func TestUint16RoundTrip(t *testing.T) {
	f := func(raw uint16) bool {
		return FromUint16(raw).Uint16() == raw
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPermsK(t *testing.T) {
	want := []int{1, 1, 2, 6, 24}
	for k := 0; k <= 4; k++ {
		if got := len(PermsK(k)); got != want[k] {
			t.Errorf("len(PermsK(%d)) = %d want %d", k, got, want[k])
		}
	}
	mustPanicT(t, func() { PermsK(5) })
}

func mustPanicT(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}
