package transform

import (
	"math/rand"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/bench"
	"aigtimer/internal/truth"
)

// randTable returns a random table over n variables; about half of them
// are made independent of a random subset of variables by cofactoring,
// so their support is smaller than n.
func randTable(rng *rand.Rand, n int) truth.TT {
	tt := truth.New(n)
	for i := range tt.W {
		tt.W[i] = rng.Uint64()
	}
	if n < 6 {
		// Replicate the significant bits across the word, as every
		// truth.TT under 6 variables is stored.
		w := tt.W[0] & (uint64(1)<<(1<<n) - 1)
		for sh := 1 << n; sh < 64; sh <<= 1 {
			w |= w << sh
		}
		tt.W[0] = w
	}
	if rng.Intn(2) == 0 {
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				tt = tt.Cofactor(v, rng.Intn(2) == 0)
			}
		}
	}
	return tt
}

// freshTable returns a table of n ≥ 6 variables with every word drawn
// at random, so that it depends on all of them with near certainty.
func freshTable(rng *rand.Rand, n int) truth.TT {
	tt := truth.New(n)
	for i := range tt.W {
		tt.W[i] = rng.Uint64()
	}
	return tt
}

// BenchmarkSynthRecord measures the cache-miss path of synthesis: one
// op records the factored program of a fresh random table of 6, 7 or 8
// variables, the widths of refactor's cones, on a warm recorder. A
// warmed BenchmarkRecipeApply never times this path, because its
// process-wide caches already hold every program it replays.
func BenchmarkSynthRecord(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tables := make([]truth.TT, 256)
	for i := range tables {
		tables[i] = freshTable(rng, 6+i%3)
	}
	var r recorder
	for _, tt := range tables {
		r.record(tt, factored)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		progSink = r.record(tables[i%len(tables)], factored)
	}
}

// progSink keeps BenchmarkSynthRecord's programs live.
var progSink *synthProg

// recordTT records the factored program of tt, or its flat two-level
// program when flat is set.
func recordTT(tt truth.TT, flat bool) *synthProg {
	if flat {
		return new(recorder).record(tt, flatSOP)
	}
	return new(recorder).record(tt, factored)
}

// TestRefactorGateBound checks the bound refactor's gate relies on: a
// table that depends on s variables costs at least s-1 ANDs.
func TestRefactorGateBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	smaller := 0
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(6)
		tt := randTable(rng, n)
		s := supportSize(tt)
		if want := len(tt.Support()); s != want {
			t.Fatalf("%v: supportSize %d, Support has %d", tt, s, want)
		}
		if s < n {
			smaller++
		}
		if c := recordTT(tt, false).cost(); max(s-1, 0) > c {
			t.Fatalf("%v: support %d but cost %d", tt, s, c)
		}
	}
	if smaller < 50 {
		t.Fatalf("only %d of 300 tables had a support smaller than their width", smaller)
	}
}

// TestProgReplayMatchesDirect checks that replaying a recorded program
// builds exactly what calling the recorded function does, in a builder
// that already holds structure and over inputs that may coincide, be
// complementary or be constant.
func TestProgReplayMatchesDirect(t *testing.T) {
	var m mover
	var s truth.Synth
	tabs := []struct {
		name  string
		synth synthFunc
		prog  func(table uint16, k int) *synthProg
	}{
		{"factored", factored, m.cutProg},
		{"flat", flatSOP, m.flatProg},
	}
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 400; trial++ {
		k := 1 + rng.Intn(4)
		table := uint16(rng.Intn(1 << 16))
		seed := rng.Int63()
		for _, tab := range tabs {
			direct, dOut := prepared(seed, k, func(b *aig.Builder, ins []aig.Lit) aig.Lit {
				return tab.synth(&s, b, ins, truth.FromUint16K(table, k))
			})
			replayed, rOut := prepared(seed, k, tab.prog(table, k).replay)
			if dOut != rOut || direct.Hash() != replayed.Hash() {
				t.Fatalf("%s k=%d table %04x: replay differs from the direct call", tab.name, k, table)
			}
		}
	}
}

// prepared builds a random 6-input graph, picks k input literals from
// it (repeats, complements and constants included), emits into it with
// emit, and returns the built graph and the emitted literal.
func prepared(seed int64, k int, emit func(*aig.Builder, []aig.Lit) aig.Lit) (*aig.AIG, aig.Lit) {
	rng := rand.New(rand.NewSource(seed))
	b := aig.NewBuilder(6)
	lits := []aig.Lit{aig.ConstFalse}
	for i := 0; i < 6; i++ {
		lits = append(lits, b.PI(i))
	}
	for i := 0; i < 20; i++ {
		x := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		y := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, b.And(x, y))
	}
	ins := make([]aig.Lit, k)
	for i := range ins {
		ins[i] = lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
	}
	out := emit(b, ins)
	b.AddPO(out)
	return b.Build(), out
}

// TestConeProgCacheBounded fills the cone-program cache past its cap
// and checks that it never holds more than the cap and that refactoring
// produces the same graph when the cache is dropped mid-move.
func TestConeProgCacheBounded(t *testing.T) {
	d, err := bench.ByName("EX08")
	if err != nil {
		t.Fatal(err)
	}
	g := Expand(d.Build(), rand.New(rand.NewSource(3)))
	want := RefactorZ(g, rand.New(rand.NewSource(1))).Hash()
	cached := func() int {
		coneProgs.Lock()
		defer coneProgs.Unlock()
		return len(coneProgs.m)
	}
	// Width 9 never occurs in a real key, so these entries only take
	// space. Overflowing the cache drops the programs refactor stored
	// above; topping it up to one short of the cap makes the refactor
	// below drop it again after its first store.
	dummy := &synthProg{}
	for i := 0; i < coneProgCap+100 || cached() < coneProgCap-1; i++ {
		storeConeProg([5]uint64{uint64(i), 0, 0, 0, 9}, dummy)
		if n := cached(); n > coneProgCap {
			t.Fatalf("cache holds %d programs, cap %d", n, coneProgCap)
		}
	}
	if got := RefactorZ(g, rand.New(rand.NewSource(1))).Hash(); got != want {
		t.Fatalf("refactor across a cache drop: hash %#x, want %#x", got, want)
	}
	if n := cached(); n >= coneProgCap-1 {
		t.Fatalf("cache holds %d programs after refactor: no drop happened", n)
	}
}
