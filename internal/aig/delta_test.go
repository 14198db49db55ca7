package aig

import (
	"math/rand"
	"testing"
)

// deltaRandomAIG builds a random strashed AIG (same idiom as the other
// packages' test helpers).
func deltaRandomAIG(rng *rand.Rand, numPIs, numAnds, numPOs int) *AIG {
	b := NewBuilder(numPIs)
	lits := make([]Lit, 0, numPIs+numAnds)
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

// equivalentGraphs checks functional equivalence by random simulation.
func equivalentGraphs(t *testing.T, a, b *AIG) {
	t.Helper()
	if a.NumPIs() != b.NumPIs() || a.NumPOs() != b.NumPOs() {
		t.Fatalf("interface mismatch: %v vs %v", a.Stats(), b.Stats())
	}
	const words = 4
	sa := a.Signature(words, 12345)
	sb := b.Signature(words, 12345)
	if sa != sb {
		t.Fatalf("functional mismatch: signature %x vs %x", sa, sb)
	}
}

func TestRebaseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := deltaRandomAIG(rng, 6, 80, 4)
	r, d := new(Builder).Rebase(g, g)
	if d.NumDirty() != 0 {
		t.Fatalf("self-rebase has %d dirty nodes", d.NumDirty())
	}
	if d.DirtyFraction() != 0 {
		t.Fatalf("self-rebase dirty fraction %v", d.DirtyFraction())
	}
	if !r.StructuralEqual(g) {
		t.Fatal("self-rebase changed the graph")
	}
	if err := d.Validate(g, r); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestRebaseDisjointCones(t *testing.T) {
	// Two independent cones; rebuilding one differently must dirty only
	// that cone.
	build := func(mutate bool) *AIG {
		b := NewBuilder(6)
		// Cone A over PIs 0..2.
		a := b.And(b.PI(0), b.PI(1))
		a = b.And(a, b.PI(2).Not())
		a = b.Or(a, b.PI(0))
		// Cone B over PIs 3..5, with two associations of the same AND.
		var c Lit
		if mutate {
			c = b.And(b.PI(3), b.And(b.PI(4), b.PI(5)))
		} else {
			c = b.And(b.And(b.PI(3), b.PI(4)), b.PI(5))
		}
		b.AddPO(a)
		b.AddPO(c)
		return b.Build()
	}
	prev := build(false)
	next := build(true)
	r, d := new(Builder).Rebase(prev, next)
	if err := d.Validate(prev, r); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	equivalentGraphs(t, next, r)
	if d.NumDirty() == 0 || d.NumDirty() >= r.NumAnds() {
		t.Fatalf("expected a partial dirty cone, got %v", d)
	}
	// Cone A (3 ANDs) must be fully matched.
	if d.NumMatched() < 3 {
		t.Fatalf("untouched cone not matched: %v", d)
	}
}

func TestRebaseRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		prev := deltaRandomAIG(rng, 4+rng.Intn(4), 20+rng.Intn(60), 1+rng.Intn(4))
		// Derive next by re-strashing prev through a fresh builder with
		// randomly swapped fanins and a few injected nodes, mimicking a
		// transform.
		nb := NewBuilder(prev.NumPIs())
		m := make([]Lit, prev.NumNodes())
		m[0] = ConstFalse
		for i := 1; i <= prev.NumPIs(); i++ {
			m[i] = nb.PI(i - 1)
		}
		prev.TopoForEachAnd(func(n int32, f0, f1 Lit) {
			a := m[f0.Node()].NotIf(f0.IsCompl())
			c := m[f1.Node()].NotIf(f1.IsCompl())
			if rng.Intn(2) == 0 {
				a, c = c, a
			}
			m[n] = nb.And(a, c)
		})
		for _, po := range prev.POs() {
			out := m[po.Node()].NotIf(po.IsCompl())
			if rng.Intn(3) == 0 {
				// Inject a redundant-but-new node above the PO.
				out = nb.Or(nb.And(out, nb.PI(rng.Intn(prev.NumPIs()))), out)
			}
			nb.AddPO(out)
		}
		next := nb.Build().Compact()

		r, d := new(Builder).Rebase(prev, next)
		if err := d.Validate(prev, r); err != nil {
			t.Fatalf("trial %d: Validate: %v", trial, err)
		}
		equivalentGraphs(t, next, r)
		if r.NumAnds() != next.NumAnds() || r.MaxLevel() != next.MaxLevel() {
			t.Fatalf("trial %d: rebase changed structure: %v vs %v", trial, r.Stats(), next.Stats())
		}
		// The pure re-strash portion must be matched: dirty nodes can only
		// come from the injected cones (each injection adds at most 3
		// nodes, all above a PO).
		if d.NumDirty() > 3*prev.NumPOs() {
			t.Fatalf("trial %d: too many dirty nodes: %v", trial, d)
		}
	}
}

func TestTFOClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := deltaRandomAIG(rng, 5, 60, 3)
	seed := []int32{g.FirstAnd() + 2}
	tfo := g.TFO(seed)
	inTFO := make(map[int32]bool)
	for _, n := range tfo {
		inTFO[n] = true
	}
	if !inTFO[seed[0]] {
		t.Fatal("TFO missing its seed")
	}
	// Closure: every AND with a fanin in the TFO is in the TFO.
	g.TopoForEachAnd(func(n int32, f0, f1 Lit) {
		if inTFO[f0.Node()] || inTFO[f1.Node()] {
			if !inTFO[n] {
				t.Fatalf("TFO not closed at node %d", n)
			}
		}
	})
}

func TestRebaseDirtySuffixIsTFOClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		prev := deltaRandomAIG(rng, 5, 40+rng.Intn(40), 2)
		next := deltaRandomAIG(rng, 5, 40+rng.Intn(40), 2)
		r, d := new(Builder).Rebase(prev, next)
		if err := d.Validate(prev, r); err != nil {
			t.Fatalf("trial %d: Validate: %v", trial, err)
		}
		// Every fanin of a matched node must be matched (i.e., the dirty
		// suffix has no fanout into the prefix), which is exactly the
		// TFO-closure property.
		limit := r.FirstAnd() + int32(d.NumMatched())
		for n := r.FirstAnd(); n < limit; n++ {
			f0, f1 := r.Fanins(n)
			if f0.Node() >= limit || f1.Node() >= limit {
				t.Fatalf("trial %d: matched node %d reads dirty node", trial, n)
			}
		}
	}
}
