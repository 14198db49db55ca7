package transform

import (
	"math/rand"
	"testing"

	"aigtimer/internal/aig"
)

func TestResubMergesDuplicateStructure(t *testing.T) {
	// Two disjoint computations of the same function; 0-resub must merge
	// them.
	b := aig.NewBuilder(3)
	x, y, z := b.PI(0), b.PI(1), b.PI(2)
	f1 := b.And(b.And(x, y), z)
	f2 := b.And(x, b.And(y, z)) // same function, different association
	b.AddPO(f1)
	b.AddPO(f2)
	g := b.Build()
	rng := rand.New(rand.NewSource(1))
	h := Resub(g, rng)
	if !aig.EquivalentExhaustive(g, h) {
		t.Fatal("resub changed function")
	}
	if h.NumAnds() >= g.NumAnds() {
		t.Errorf("resub did not merge: %d -> %d", g.NumAnds(), h.NumAnds())
	}
}

func TestResubExactOnLargerDesigns(t *testing.T) {
	// Above 12 PIs the screen is random simulation and every substitution
	// must be proven; equivalence must still hold exactly (checked here
	// with full exhaustive comparison at 14 PIs).
	rng := rand.New(rand.NewSource(2))
	g := randomAIG(rng, 14, 220, 5)
	for i := 0; i < 3; i++ {
		h := Resub(g, rng)
		if !aig.EquivalentExhaustive(g, h) {
			t.Fatal("resub broke function on 14-PI design")
		}
		hz := ResubZ(g, rng)
		if !aig.EquivalentExhaustive(g, hz) {
			t.Fatal("resub -z broke function on 14-PI design")
		}
	}
}

func TestVerifierEqual(t *testing.T) {
	b := aig.NewBuilder(4)
	x, y := b.PI(0), b.PI(1)
	// Two equivalent forms of XOR.
	xor1 := b.Or(b.And(x, y.Not()), b.And(x.Not(), y))
	xor2 := b.And(b.Or(x, y), b.And(x, y).Not())
	xnor := b.Xnor(x, y)
	b.AddPO(xor1)
	b.AddPO(xor2)
	b.AddPO(xnor)
	g := b.Build()
	v := new(verifier).bind(g)

	// The verifier compares NODE functions; literals may carry a
	// complement bit (Or returns a complemented NAND node), so the
	// expected phase difference is derived from the literals.
	ph12 := xor1.IsCompl() != xor2.IsCompl()
	eq, verified := v.equal(xor1.Node(), xor2.Node(), ph12)
	if !verified || !eq {
		t.Fatalf("equal XORs not proven: eq=%v verified=%v", eq, verified)
	}
	// XOR vs XNOR are complements (as literals).
	ph1n := xor1.IsCompl() != xnor.IsCompl()
	eq, verified = v.equal(xor1.Node(), xnor.Node(), !ph1n)
	if !verified || !eq {
		t.Fatalf("complement equivalence not proven")
	}
	eq, verified = v.equal(xor1.Node(), xnor.Node(), ph1n)
	if !verified || eq {
		t.Fatalf("XOR == XNOR wrongly proven")
	}
}

func TestVerifierAndEquals(t *testing.T) {
	b := aig.NewBuilder(3)
	x, y, z := b.PI(0), b.PI(1), b.PI(2)
	d0 := b.And(x, y)
	d1 := b.And(y, z)
	n := b.And(d0, z) // x·y·z == (x·y)·(y·z)
	b.AddPO(n)
	b.AddPO(d1)
	g := b.Build()
	v := new(verifier).bind(g)
	eq, verified := v.andEquals(n.Node(), d0.Node(), d1.Node(), false, false, false)
	if !verified || !eq {
		t.Fatalf("x·y·z == (x·y)(y·z) not proven: eq=%v verified=%v", eq, verified)
	}
	eq, verified = v.andEquals(n.Node(), d0.Node(), d1.Node(), true, false, false)
	if !verified || eq {
		t.Fatalf("wrong complement combination proven")
	}
}

func TestVerifierSupportBound(t *testing.T) {
	// Two nodes whose union support exceeds the bound must be reported as
	// unverifiable, not unequal.
	b := aig.NewBuilder(20)
	a := b.PI(0)
	for i := 1; i < 10; i++ {
		a = b.And(a, b.PI(i))
	}
	c := b.PI(10)
	for i := 11; i < 20; i++ {
		c = b.And(c, b.PI(i))
	}
	b.AddPO(a)
	b.AddPO(c)
	g := b.Build()
	v := new(verifier).bind(g)
	_, verified := v.equal(a.Node(), c.Node(), false)
	if verified {
		t.Fatalf("20-input union support verified despite bound %d", exactVerifyMaxSupport)
	}
}

func TestPISupports(t *testing.T) {
	b := aig.NewBuilder(3)
	n1 := b.And(b.PI(0), b.PI(1))
	n2 := b.And(n1, b.PI(2))
	b.AddPO(n2)
	g := b.Build()
	sup := new(verifier).bind(g).sup
	if sup[n1.Node()] != 0b011 || sup[n2.Node()] != 0b111 {
		t.Fatalf("supports wrong: %b %b", sup[n1.Node()], sup[n2.Node()])
	}
}
