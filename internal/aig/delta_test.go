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

// matchedPrefix is the test-side reference for Rebase's ordering
// contract, which every ground-truth trajectory depends on. It counts
// the AND nodes of next that match prev structurally (fanins translated
// through earlier matches, the pair looked up in prev.PairIndex(), each
// prev node claimed once), then checks that r, next rebased against
// prev, starts with exactly that many nodes, each reproducing a fanin
// pair of prev through the nodes before it, onto strictly ascending prev
// nodes. It returns the prefix length; the rest of r is the dirty
// suffix.
func matchedPrefix(t *testing.T, prev, next, r *AIG) int {
	t.Helper()
	if prev.NumPIs() != next.NumPIs() || r.NumAnds() != next.NumAnds() {
		t.Fatalf("rebase changed the interface: %v vs %v", r.Stats(), next.Stats())
	}
	pairs := prev.PairIndex()
	first := next.FirstAnd()
	translate := func(match []int32, l Lit) (Lit, bool) {
		n := l.Node()
		if n < first {
			return l, true // constant and PIs map to themselves
		}
		if i := int(n - first); i < len(match) && match[i] >= 0 {
			return MakeLit(match[i], l.IsCompl()), true
		}
		return 0, false
	}
	lookup := func(match []int32, n int32, g *AIG) int32 {
		f0, f1 := g.Fanins(n)
		t0, ok0 := translate(match, f0)
		t1, ok1 := translate(match, f1)
		if p, ok := pairs[pairKeyNorm(t0, t1)]; ok0 && ok1 && ok {
			return p
		}
		return -1
	}
	claimed := make(map[int32]bool)
	match := make([]int32, 0, next.NumAnds())
	matched := 0
	for n := first; n < int32(next.NumNodes()); n++ {
		p := lookup(match, n, next)
		if p >= 0 && !claimed[p] {
			claimed[p] = true
			matched++
		} else {
			p = -1
		}
		match = append(match, p)
	}
	prefix := make([]int32, 0, matched)
	for i := 0; i < matched; i++ {
		p := lookup(prefix, first+int32(i), r)
		if p < 0 || (i > 0 && p <= prefix[i-1]) {
			t.Fatalf("rebased node %d is not the next matched node in ascending prev order", first+int32(i))
		}
		prefix = append(prefix, p)
	}
	return matched
}

func TestRebaseIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := deltaRandomAIG(rng, 6, 80, 4)
	r := new(Builder).Rebase(g, g)
	if m := matchedPrefix(t, g, g, r); m != g.NumAnds() {
		t.Fatalf("self-rebase has %d dirty nodes", g.NumAnds()-m)
	}
	if !r.StructuralEqual(g) {
		t.Fatal("self-rebase changed the graph")
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
	r := new(Builder).Rebase(prev, next)
	matched := matchedPrefix(t, prev, next, r)
	equivalentGraphs(t, next, r)
	if dirty := r.NumAnds() - matched; dirty == 0 || dirty >= r.NumAnds() {
		t.Fatalf("expected a partial dirty cone, got %d of %d dirty", dirty, r.NumAnds())
	}
	// Cone A (3 ANDs) must be fully matched.
	if matched < 3 {
		t.Fatalf("untouched cone not matched: %d matched", matched)
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

		r := new(Builder).Rebase(prev, next)
		matched := matchedPrefix(t, prev, next, r)
		equivalentGraphs(t, next, r)
		if r.NumAnds() != next.NumAnds() || r.MaxLevel() != next.MaxLevel() {
			t.Fatalf("trial %d: rebase changed structure: %v vs %v", trial, r.Stats(), next.Stats())
		}
		// The pure re-strash portion must be matched: dirty nodes can only
		// come from the injected cones (each injection adds at most 3
		// nodes, all above a PO).
		if dirty := r.NumAnds() - matched; dirty > 3*prev.NumPOs() {
			t.Fatalf("trial %d: too many dirty nodes: %d", trial, dirty)
		}
	}
}

func TestRebaseDirtySuffixIsTFOClosed(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		prev := deltaRandomAIG(rng, 5, 40+rng.Intn(40), 2)
		next := deltaRandomAIG(rng, 5, 40+rng.Intn(40), 2)
		r := new(Builder).Rebase(prev, next)
		// Every fanin of a matched node must be matched (i.e., the dirty
		// suffix has no fanout into the prefix), which is exactly the
		// TFO-closure property.
		limit := r.FirstAnd() + int32(matchedPrefix(t, prev, next, r))
		for n := r.FirstAnd(); n < limit; n++ {
			f0, f1 := r.Fanins(n)
			if f0.Node() >= limit || f1.Node() >= limit {
				t.Fatalf("trial %d: matched node %d reads dirty node", trial, n)
			}
		}
	}
}
