package cut

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"aigtimer/internal/aig"
	"aigtimer/internal/bench"
	"aigtimer/internal/truth"
)

// enumerate is Enumerate on a new Enumerator, so every call's lists are
// its own.
func enumerate(g *aig.AIG, p Params) [][]Cut { return new(Enumerator).Enumerate(g, p) }

// buildSmall returns f = (a·b)·(c+d) with intermediate literals.
func buildSmall() (*aig.AIG, aig.Lit, aig.Lit, aig.Lit) {
	b := aig.NewBuilder(4)
	n1 := b.And(b.PI(0), b.PI(1))
	n2 := b.Or(b.PI(2), b.PI(3))
	n3 := b.And(n1, n2)
	b.AddPO(n3)
	return b.Build(), n1, n2, n3
}

func TestEnumerateSmall(t *testing.T) {
	g, n1, n2, n3 := buildSmall()
	cuts := enumerate(g, DefaultParams)

	// Every node must include its trivial cut.
	for n := int32(1); n < int32(g.NumNodes()); n++ {
		found := false
		for _, c := range cuts[n] {
			if c.IsTrivial(n) {
				found = true
			}
		}
		if !found {
			t.Errorf("node %d has no trivial cut", n)
		}
	}

	// The root must have a 4-leaf cut over the PIs with function
	// (a·b)·(c+d).
	var root *Cut
	for i := range cuts[n3.Node()] {
		c := &cuts[n3.Node()][i]
		if c.Size() == 4 {
			root = c
			break
		}
	}
	if root == nil {
		t.Fatalf("no 4-leaf cut on root; cuts: %+v", cuts[n3.Node()])
	}
	for i, want := range []int32{1, 2, 3, 4} {
		if root.Leaf(i) != want {
			t.Fatalf("root cut leaves = %v", root.Leaves())
		}
	}
	want := computeWant(func(m int) bool {
		a, b := m&1 == 1, m&2 == 2
		c, d := m&4 == 4, m&8 == 8
		return a && b && (c || d)
	})
	if root.Table != want {
		t.Errorf("root cut table = %04x, want %04x", root.Table, want)
	}
	_ = n1
	_ = n2
}

func computeWant(f func(m int) bool) uint16 {
	var tt uint16
	for m := 0; m < 16; m++ {
		if f(m) {
			tt |= 1 << m
		}
	}
	return tt
}

// TestCutFunctionsMatchSimulation cross-validates every enumerated cut's
// truth table against direct AIG simulation on random graphs.
func TestCutFunctionsMatchSimulation(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomAIG(rng, 4+rng.Intn(5), 10+rng.Intn(50))
		cuts := enumerate(g, DefaultParams)
		pats := aig.ExhaustivePatterns(g.NumPIs())
		res := g.Simulate(pats)
		nBits := 1 << g.NumPIs()
		for n := int32(g.FirstAnd()); n < int32(g.NumNodes()); n++ {
			for _, c := range cuts[n] {
				if !cutConsistent(res, n, c, nBits) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// cutConsistent checks that for every simulated minterm, applying the
// cut's table to the leaf values reproduces the root value.
func cutConsistent(res *aig.SimResult, root int32, c Cut, nBits int) bool {
	for m := 0; m < nBits; m++ {
		idx := 0
		for j, leaf := range c.Leaves() {
			if res.Values[leaf][m/64]>>(m%64)&1 == 1 {
				idx |= 1 << j
			}
		}
		want := res.Values[root][m/64]>>(m%64)&1 == 1
		got := c.Table>>idx&1 == 1
		if got != want {
			return false
		}
	}
	return true
}

func randomAIG(rng *rand.Rand, numPIs, numAnds int) *aig.AIG {
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
	b.AddPO(lits[len(lits)-1])
	return b.Build()
}

func TestCutSizesRespectK(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randomAIG(rng, 8, 80)
	for k := 2; k <= 4; k++ {
		cuts := enumerate(g, Params{K: k, MaxCuts: 6})
		for n := range cuts {
			if len(cuts[n]) > 7 { // MaxCuts + trivial
				t.Fatalf("k=%d node %d has %d cuts", k, n, len(cuts[n]))
			}
			for _, c := range cuts[n] {
				if c.Size() > k {
					t.Fatalf("k=%d: cut with %d leaves", k, c.Size())
				}
			}
		}
	}
}

func TestNoDominatedCuts(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomAIG(rng, 6, 60)
	cuts := enumerate(g, DefaultParams)
	for n := range cuts {
		cs := cuts[n]
		for i := range cs {
			for j := range cs {
				if i == j {
					continue
				}
				if cs[i].Size() < cs[j].Size() && subset(&cs[i], &cs[j]) {
					// The trivial cut appended last may be dominated only
					// if {n} ⊂ other leaves, impossible since leaves
					// precede n topologically... report any violation.
					t.Fatalf("node %d: cut %v dominates kept cut %v", n, cs[i].Leaves(), cs[j].Leaves())
				}
			}
		}
	}
}

func TestMergeLeaves(t *testing.T) {
	cutOf := func(leaves ...int32) *Cut {
		c := New(leaves, truth.PadTo4(0xA, 2))
		return &c
	}
	got, ok := merge(cutOf(1, 3), cutOf(2, 3), 4, false, false)
	if !ok || got.Size() != 3 || got.Leaf(0) != 1 || got.Leaf(1) != 2 || got.Leaf(2) != 3 {
		t.Fatalf("merge = %v ok=%v", got.Leaves(), ok)
	}
	if _, ok := merge(cutOf(1, 2, 3), cutOf(4, 5), 4, false, false); ok {
		t.Fatalf("merge should fail on overflow")
	}
	got, ok = merge(&Cut{}, cutOf(7), 4, false, false)
	if !ok || got.Size() != 1 || got.Leaf(0) != 7 {
		t.Fatalf("merge with empty = %v", got.Leaves())
	}
}

// TestFilterDropsDuplicates feeds filter a pool with repeated and
// dominated cuts: each leaf set is kept once, in size-then-leaf order,
// a superset of a kept cut is dropped, and the budget cuts the list.
func TestFilterDropsDuplicates(t *testing.T) {
	pool := func() []Cut {
		var cs []Cut
		for _, ls := range [][]int32{{4, 5}, {1, 3}, {4, 5}, {2, 6, 7}, {1, 3}, {2, 6, 7}, {1, 3, 4}} {
			cs = append(cs, New(ls, 0))
		}
		return cs
	}
	for _, tc := range []struct {
		maxCuts int
		want    [][]int32
	}{
		{8, [][]int32{{1, 3}, {4, 5}, {2, 6, 7}}},
		{2, [][]int32{{1, 3}, {4, 5}}},
	} {
		got := filter(pool(), tc.maxCuts, nil)
		if len(got) != len(tc.want) {
			t.Fatalf("maxCuts %d: kept %d cuts, want %v", tc.maxCuts, len(got), tc.want)
		}
		for i := range got {
			if !slices.Equal(got[i].Leaves(), tc.want[i]) {
				t.Fatalf("maxCuts %d: cut %d = %v, want %v", tc.maxCuts, i, got[i].Leaves(), tc.want[i])
			}
		}
	}
}

// TestMergeMatchesSortedUnion checks the signature-gated merge against a
// plain reference: the sorted union of the two leaf sets, rejected when
// it exceeds k, with each table rewired by the general TransformPins
// loop. Leaves are drawn from a few values 64 apart, so signatures alias
// and the gate's popcount undercounts the union.
func TestMergeMatchesSortedUnion(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pool := []int32{3, 67, 131, 195, 5, 69, 9, 200, 1000, 1064}
	pick := func() []int32 {
		var ls []int32
		for _, l := range pool {
			if len(ls) < 4 && rng.Intn(3) == 0 {
				ls = append(ls, l)
			}
		}
		slices.Sort(ls)
		return ls
	}
	aliased := 0
	for trial := 0; trial < 20000; trial++ {
		la, lb := pick(), pick()
		k := 2 + rng.Intn(3)
		inv0, inv1 := rng.Intn(2) == 0, rng.Intn(2) == 0
		a := New(la, truth.PadTo4(uint16(rng.Uint32()), len(la)))
		b := New(lb, truth.PadTo4(uint16(rng.Uint32()), len(lb)))
		union := slices.Compact(slices.Sorted(slices.Values(append(slices.Clone(la), lb...))))
		if bits.OnesCount64(a.sig|b.sig) < len(union) {
			aliased++
		}
		got, ok := merge(&a, &b, k, inv0, inv1)
		if ok != (len(union) <= k) {
			t.Fatalf("merge(%v, %v, k=%d) ok=%v, union %v", la, lb, k, ok, union)
		}
		if !ok {
			continue
		}
		want := New(union, 0)
		if !sameLeaves(&got, &want) || got.sig != want.sig {
			t.Fatalf("merge(%v, %v) = %v sig %x, want %v sig %x", la, lb, got.Leaves(), got.sig, union, want.sig)
		}
		rewire := func(c Cut, ls []int32, inv bool) uint16 {
			var pinVar [4]int // pins past len(ls) are padding; any variable will do
			for j, l := range ls {
				pinVar[j] = slices.Index(union, l)
			}
			tt := truth.TransformPins(c.Table, 4, pinVar[:], 0)
			if inv {
				tt = ^tt
			}
			return tt
		}
		if wt := rewire(a, la, inv0) & rewire(b, lb, inv1); got.Table != wt {
			t.Fatalf("merge(%v, %v) table %04x, want %04x", la, lb, got.Table, wt)
		}
	}
	if aliased == 0 {
		t.Fatal("no trial had aliased signature bits")
	}
}

func TestTrivialCutTable(t *testing.T) {
	c := trivialCut(9)
	// Projection of variable 0.
	want := truth.PadTo4(0xA, 2)
	if c.Table != want {
		t.Fatalf("trivial table %04x want %04x", c.Table, want)
	}
}

func TestEnumerateParamsValidation(t *testing.T) {
	g, _, _, _ := buildSmall()
	for _, p := range []Params{{K: 1, MaxCuts: 4}, {K: 5, MaxCuts: 4}, {K: 4, MaxCuts: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Enumerate(%+v) should panic", p)
				}
			}()
			enumerate(g, p)
		}()
	}
}

// randDualAIG builds a deterministic random AIG for the dual-enumeration
// differential tests.
func randDualAIG(seed int64, numPIs, numAnds int) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	b := aig.NewBuilder(numPIs)
	lits := make([]aig.Lit, 0, numPIs+numAnds)
	for i := 0; i < numPIs; i++ {
		lits = append(lits, b.PI(i))
	}
	for len(lits) < numPIs+numAnds {
		x := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		y := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, b.And(x, y))
	}
	b.AddPO(lits[len(lits)-1])
	b.AddPO(lits[len(lits)-2])
	return b.Build().Compact()
}

// sameCutLists asserts two per-node cut sets are identical list for
// list — leaves and tables, in order.
func sameCutLists(t *testing.T, tag string, a, b [][]Cut) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: node counts %d vs %d", tag, len(a), len(b))
	}
	for n := range a {
		if len(a[n]) != len(b[n]) {
			t.Fatalf("%s: node %d has %d vs %d cuts", tag, n, len(a[n]), len(b[n]))
		}
		for i := range a[n] {
			ca, cb := a[n][i], b[n][i]
			if ca.Table != cb.Table || !sameLeaves(&ca, &cb) {
				t.Fatalf("%s: node %d cut %d differs: %+v vs %+v", tag, n, i, ca, cb)
			}
		}
	}
}

// TestEnumerateDualMatchesIndependent is the exactness contract of the
// shared dual-effort enumeration: for random graphs and several budget
// pairs, both returned cut sets must equal independent Enumerate runs
// bit for bit (signoff's dual-effort mapping reuse is built on exactly
// this). The dual pass runs on one Enumerator reused across every graph
// and budget pair, so recycled storage is checked too; the references
// are fresh.
func TestEnumerateDualMatchesIndependent(t *testing.T) {
	var warm Enumerator
	for seed := int64(1); seed <= 6; seed++ {
		g := randDualAIG(seed, 6, 120)
		for _, pair := range []struct{ lo, hi int }{
			{8, 24}, // the signoff effort pair
			{1, 2},
			{4, 4},
			{12, 6}, // "low" larger than "high": no containment either way
		} {
			pLow := Params{K: 4, MaxCuts: pair.lo}
			pHigh := Params{K: 4, MaxCuts: pair.hi}
			low, high := warm.EnumerateDual(g, pLow, pHigh)
			sameCutLists(t, "low", enumerate(g, pLow), low)
			sameCutLists(t, "high", enumerate(g, pHigh), high)
		}
	}
}

// BenchmarkEnumerateDual compares the shared dual-budget pass against
// two independent enumerations at the signoff effort pair.
func BenchmarkEnumerateDual(b *testing.B) {
	g := randDualAIG(1, 8, 1024)
	pLow := Params{K: 4, MaxCuts: 8}
	pHigh := Params{K: 4, MaxCuts: 24}
	b.Run("dual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			new(Enumerator).EnumerateDual(g, pLow, pHigh)
		}
	})
	b.Run("independent", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			enumerate(g, pLow)
			enumerate(g, pHigh)
		}
	})
}

// TestExpandMatchesTransformPins pins the delta-swap expansion to the
// general minterm-loop reference it replaced: for every subset of a
// 4-leaf union and every table, the rewired tables must agree.
func TestExpandMatchesTransformPins(t *testing.T) {
	leaves := []int32{3, 7, 11, 15}
	rng := rand.New(rand.NewSource(5))
	for mask := 1; mask < 16; mask++ {
		var own []int32
		var pinVar [4]int
		var pos [4]uint8
		for b := 0; b < 4; b++ {
			if mask>>b&1 == 1 {
				pinVar[len(own)], pos[len(own)] = b, uint8(b)
				own = append(own, leaves[b])
			}
		}
		for trial := 0; trial < 256; trial++ {
			tbl := truth.PadTo4(uint16(rng.Uint32()), len(own))
			want := truth.TransformPins(tbl, 4, pinVar[:], 0)
			if got := expand(tbl, len(own), &pos); got != want {
				t.Fatalf("expand(%04x, own=%v) = %04x, want %04x", tbl, own, got, want)
			}
		}
	}
}

// hashCuts feeds every node's cut list — count, then per cut the leaf
// count, leaves and table — into h.
func hashCuts(h hash.Hash64, cuts [][]Cut) {
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	for _, cs := range cuts {
		put(uint32(len(cs)))
		for i := range cs {
			put(uint32(cs[i].Size()))
			for _, l := range cs[i].Leaves() {
				put(uint32(l))
			}
			put(uint32(cs[i].Table))
		}
	}
}

// TestEnumerateGoldenDigest pins the enumerator's output on every suite
// design: Enumerate at four (K, MaxCuts) budgets and both lists of the
// signoff effort pair's EnumerateDual. The digest was recorded from the
// slice-leaf enumerator that the fixed-width cut value replaced; any
// change to a kept list, its order, or a table changes it.
func TestEnumerateGoldenDigest(t *testing.T) {
	const want = 0x1dd98911f906ef0c
	h := fnv.New64a()
	for _, d := range bench.Suite() {
		g := d.Build()
		for _, p := range []Params{{4, 8}, {4, 24}, {3, 5}, {2, 3}} {
			hashCuts(h, enumerate(g, p))
		}
		low, high := new(Enumerator).EnumerateDual(g, Params{4, 8}, Params{4, 24})
		hashCuts(h, low)
		hashCuts(h, high)
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("cut digest %016x, want %016x", got, uint64(want))
	}
}
