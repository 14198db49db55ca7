package aig

import (
	"math/rand"
	"slices"
	"testing"
)

// mapBuilder is the reference strash: a Go map from the normalized
// fanin pair to the node, with And's trivial cases. Builder must return
// the same literal for every call.
type mapBuilder struct {
	numNodes int32
	strash   map[uint64]int32
}

func (r *mapBuilder) and(a, c Lit) Lit {
	if a < c {
		a, c = c, a
	}
	switch {
	case c == ConstFalse, a == c.Not():
		return ConstFalse
	case c == ConstTrue, a == c:
		return a
	}
	key := uint64(a)<<32 | uint64(c)
	if n, ok := r.strash[key]; ok {
		return MakeLit(n, false)
	}
	n := r.numNodes
	r.numNodes++
	r.strash[key] = n
	return MakeLit(n, false)
}

// TestBuilderMatchesMapStrash replays random And sequences, with many
// repeated and trivial requests, on one Builder reset between graphs of
// very different sizes and hints, and on the map reference.
func TestBuilderMatchesMapStrash(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var b Builder
	for round, size := range []int{5000, 40, 1200, 0, 300} {
		numPIs := 1 + rng.Intn(12)
		hint := []int{0, size / 3, size, 4 * size}[round%4]
		b.Reset(numPIs, hint)
		ref := mapBuilder{numNodes: int32(numPIs + 1), strash: map[uint64]int32{}}
		lits := []Lit{ConstFalse, ConstTrue}
		for i := 0; i < numPIs; i++ {
			lits = append(lits, b.PI(i))
		}
		for i := 0; i < 3*size; i++ {
			x := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			y := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
			got, want := b.And(x, y), ref.and(x, y)
			if got != want {
				t.Fatalf("round %d call %d: And(%v, %v) = %v, reference %v", round, i, x, y, got, want)
			}
			lits = append(lits, got)
		}
		if b.NumAnds() != int(ref.numNodes)-numPIs-1 {
			t.Fatalf("round %d: %d ANDs, reference %d", round, b.NumAnds(), int(ref.numNodes)-numPIs-1)
		}
		// Every stored pair is found again, in either operand order.
		g := b.Graph()
		for n := g.FirstAnd(); n < int32(g.NumNodes()); n++ {
			f0, f1 := g.Fanins(n)
			if b.And(f1, f0) != MakeLit(n, false) || b.NumAnds() != g.NumAnds() {
				t.Fatalf("round %d: node %d not found again", round, n)
			}
		}
		if !slices.Equal(g.Levels(), g.Copy().Levels()) {
			t.Fatalf("round %d: builder's level cache differs from a recount", round)
		}
	}
}

// TestBuilderResetScalesWithGraph checks that Reset sizes the strash
// table and node array to the graph about to be built, whatever the
// storage held before: a resident worker alternates large and small
// designs.
func TestBuilderResetScalesWithGraph(t *testing.T) {
	var b Builder
	b.Compact(randomAIG(rand.New(rand.NewSource(4)), 16, 50000, 8))
	big := len(b.keys)
	b.Reset(8, 100)
	if len(b.keys) != 256 || len(b.g.nodes) != 9 || len(b.g.levels) != 9 {
		t.Fatalf("after Reset(8, 100): %d slots (was %d), %d nodes, %d levels; want 256, 9, 9",
			len(b.keys), big, len(b.g.nodes), len(b.g.levels))
	}
	if cap(b.keys) < big {
		t.Fatalf("Reset dropped the table's storage: cap %d < %d", cap(b.keys), big)
	}
}

// TestRetainedCompactAndRebaseMatchFresh runs Compact and Rebase on one
// Builder over a stream of graphs and checks each result against a
// fresh one. Every second input is a rebased graph, whose fanin pairs
// are not in Builder order.
func TestRetainedCompactAndRebaseMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var b, rb Builder
	for i := 0; i < 40; i++ {
		numPIs := 3 + rng.Intn(8)
		prev := randomAIG(rng, numPIs, 10+rng.Intn(400), 1+rng.Intn(6))
		next := randomAIG(rng, numPIs, 10+rng.Intn(400), 1+rng.Intn(6))
		if i%2 == 1 {
			next = new(Builder).Rebase(prev, next)
		}
		got := b.Compact(next)
		if want := next.Compact(); !got.StructuralEqual(want) {
			t.Fatalf("graph %d: retained Compact differs from AIG.Compact", i)
		}
		if !slices.Equal(got.Levels(), got.Copy().Levels()) {
			t.Fatalf("graph %d: compacted graph's level cache differs from a recount", i)
		}
		if !slices.Equal(got.FanoutCounts(), got.Copy().FanoutCounts()) {
			t.Fatalf("graph %d: compacted graph's fanout cache differs from a recount", i)
		}
		r1 := rb.Rebase(prev, next)
		r2 := new(Builder).Rebase(prev, next)
		if !r1.StructuralEqual(r2) {
			t.Fatalf("graph %d: retained Rebase differs from a fresh builder's", i)
		}
		matchedPrefix(t, prev, next, r1)
	}
}
