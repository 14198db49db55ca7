package transform

import (
	"math/rand"
	"slices"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/bench"
	"aigtimer/internal/cut"
)

// referenceSavings is the cut-savings count written out the long way:
// collect every AND strictly between the leaves and n (plus n), visit
// that cone in descending index order, and count the nodes whose every
// fanout reference comes from a node already counted.
func referenceSavings(g *aig.AIG, n int32, leaves []int32, fanouts []int32) int {
	leaf := map[int32]bool{}
	for _, l := range leaves {
		leaf[l] = true
	}
	inCone := map[int32]bool{n: true}
	cone := []int32{n}
	for i := 0; i < len(cone); i++ {
		f0, f1 := g.Fanins(cone[i])
		for _, f := range [2]aig.Lit{f0, f1} {
			fn := f.Node()
			if leaf[fn] || !g.IsAnd(fn) || inCone[fn] {
				continue
			}
			inCone[fn] = true
			cone = append(cone, fn)
		}
	}
	slices.Sort(cone)
	slices.Reverse(cone)
	uses := map[int32]int32{}
	count := 0
	for _, c := range cone {
		if c != n && uses[c] != fanouts[c] {
			continue
		}
		f0, f1 := g.Fanins(c)
		uses[f0.Node()]++
		uses[f1.Node()]++
		count++
	}
	return count
}

// checkSavings compares savings.compute against referenceSavings for
// every given (node, leaves) query on g, through one bound savings.
func checkSavings(t *testing.T, name string, g *aig.AIG, queries func(visit func(n int32, leaves []int32))) int {
	t.Helper()
	fo := g.FanoutCounts()
	s := new(savings).bind(g)
	checked := 0
	queries(func(n int32, leaves []int32) {
		got := s.compute(n, leaves, fo)
		if want := referenceSavings(g, n, leaves, fo); got != want {
			t.Fatalf("%s: node %d over leaves %v saves %d, want %d", name, n, leaves, got, want)
		}
		checked++
	})
	return checked
}

// cutQueries visits every non-trivial 4-cut of every AND of g, as
// rewrite and expand enumerate them.
func cutQueries(g *aig.AIG) func(visit func(int32, []int32)) {
	return func(visit func(int32, []int32)) {
		var e cut.Enumerator
		cuts := e.Enumerate(g, cut.Params{K: 4, MaxCuts: 8})
		for n := g.FirstAnd(); n < int32(g.NumNodes()); n++ {
			for i := range cuts[n] {
				c := &cuts[n][i]
				if c.IsTrivial(n) || c.Size() < 2 {
					continue
				}
				visit(n, c.Leaves())
			}
		}
	}
}

// reconvQueries visits refactor's reconvergence-driven cut of every AND
// of g.
func reconvQueries(g *aig.AIG) func(visit func(int32, []int32)) {
	return func(visit func(int32, []int32)) {
		fo := g.FanoutCounts()
		m := new(mover)
		for n := g.FirstAnd(); n < int32(g.NumNodes()); n++ {
			visit(n, m.reconvCut(g, n, refactorMaxLeaves, fo))
		}
	}
}

// TestSavingsMatchesReference pins the cut-savings count rewrite's gains
// and refactor's accept test read: on the suite designs (every
// non-trivial 4-cut and every reconvergent cut), a recipe variant of
// each, and random graphs, compute must equal the collect, sort and
// scan reference.
func TestSavingsMatchesReference(t *testing.T) {
	var graphs []*aig.AIG
	var names []string
	for i, d := range bench.Suite() {
		g := d.Build()
		graphs = append(graphs, g, Recipes()[i*7%len(Recipes())].Apply(g, rand.New(rand.NewSource(int64(i)))))
		names = append(names, d.Name, d.Name+"-variant")
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 40; i++ {
		graphs = append(graphs, randAIG(rng, 3+rng.Intn(10), 10+rng.Intn(200), 1+rng.Intn(6)))
		names = append(names, "random")
	}
	cuts, reconv := 0, 0
	for i, g := range graphs {
		cuts += checkSavings(t, names[i], g, cutQueries(g))
		reconv += checkSavings(t, names[i], g, reconvQueries(g))
	}
	if cuts < 50000 || reconv < 8000 {
		t.Fatalf("checked only %d cut and %d reconvergent queries", cuts, reconv)
	}
}
