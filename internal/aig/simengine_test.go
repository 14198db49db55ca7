package aig

import (
	"math/rand"
	"sync"
	"testing"
)

// wideAIG builds a layered AIG whose levels each hold ~width nodes.
func wideAIG(rng *rand.Rand, pis, width, layers, pos int) *AIG {
	b := NewBuilder(pis)
	prev := make([]Lit, 0, width)
	for i := 0; i < pis; i++ {
		prev = append(prev, b.PI(i))
	}
	for l := 0; l < layers; l++ {
		next := make([]Lit, 0, width)
		for len(next) < width {
			a := prev[rng.Intn(len(prev))].NotIf(rng.Intn(2) == 1)
			c := prev[rng.Intn(len(prev))].NotIf(rng.Intn(2) == 1)
			next = append(next, b.And(a, c))
		}
		prev = next
	}
	for i := 0; i < pos; i++ {
		b.AddPO(prev[rng.Intn(len(prev))])
	}
	return b.Build()
}

// sameResult fails the test unless the two results agree word-for-word on
// every node.
func sameResult(t *testing.T, got, want *SimResult, label string) {
	t.Helper()
	if got.Words != want.Words {
		t.Fatalf("%s: words %d != %d", label, got.Words, want.Words)
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("%s: %d nodes != %d", label, len(got.Values), len(want.Values))
	}
	for n := range got.Values {
		for w := range got.Values[n] {
			if got.Values[n][w] != want.Values[n][w] {
				t.Fatalf("%s: node %d word %d: %#x != %#x",
					label, n, w, got.Values[n][w], want.Values[n][w])
			}
		}
	}
}

// TestSimulatorMatchesSequential validates the engine against the scalar
// reference over assorted graph shapes and pattern widths, including buffer
// reuse across width changes within one Simulator, and a wide layered
// graph (levels of ~1500 nodes) at a narrow width.
func TestSimulatorMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		g := randomAIG(rng, 4+rng.Intn(8), 50+rng.Intn(400), 4)
		sim := NewSimulator(g)
		for _, words := range []int{1, 3, 17, 64} {
			pats := RandomPatterns(g.NumPIs(), words, rng)
			sameResult(t, sim.Simulate(pats), g.SimulateSequential(pats), "engine")
		}
	}
	rng = rand.New(rand.NewSource(5))
	g := wideAIG(rng, 16, 1500, 5, 8)
	pats := RandomPatterns(g.NumPIs(), 8, rng)
	sameResult(t, NewSimulator(g).Simulate(pats), g.SimulateSequential(pats), "wide")
}

// TestSimulatorConcurrentUse exercises the engine from many goroutines at
// once — one Simulator per goroutine over one shared AIG — and is expected
// to run under -race.
func TestSimulatorConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	g := wideAIG(rng, 14, 300, 8, 6)
	pats := RandomPatterns(g.NumPIs(), 64, rng)
	ref := g.SimulateSequential(pats) // shared read-only reference
	wantSig := g.Signature(64, 99)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for k := 0; k < 16; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sim := NewSimulator(g)
			for round := 0; round < 4; round++ {
				res := sim.Simulate(pats)
				for n := range res.Values {
					for w := range ref.Values[n] {
						if res.Values[n][w] != ref.Values[n][w] {
							errs <- "mismatch vs sequential"
							return
						}
					}
				}
				if got := g.Signature(64, 99); got != wantSig {
					errs <- "signature diverged"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSimulatorNoPIs covers graphs whose pattern width cannot be inferred
// from the inputs; EquivalentExhaustive previously crashed on these.
func TestSimulatorNoPIs(t *testing.T) {
	mk := func(l Lit) *AIG {
		b := NewBuilder(0)
		b.AddPO(l)
		return b.Build()
	}
	gt, gf := mk(ConstTrue), mk(ConstFalse)
	res := NewSimulator(gt).SimulateWords(nil, 1)
	if got := res.LitValues(gt.PO(0))[0]; got != ^uint64(0) {
		t.Fatalf("const-true PO simulated to %#x", got)
	}
	if !EquivalentExhaustive(gt, mk(ConstTrue)) {
		t.Fatal("identical constant AIGs reported inequivalent")
	}
	if EquivalentExhaustive(gt, gf) {
		t.Fatal("true and false constants reported equivalent")
	}
	if !EquivalentRandom(gf, mk(ConstFalse), 4, 1) {
		t.Fatal("EquivalentRandom failed on constant AIGs")
	}
}

// TestSimulateWrapperCompat pins the compatibility wrapper to the reference
// path and its documented panics.
func TestSimulateWrapperCompat(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := randomAIG(rng, 6, 80, 3)
	pats := RandomPatterns(6, 4, rng)
	sameResult(t, g.Simulate(pats), g.SimulateSequential(pats), "wrapper")

	sim := NewSimulator(g)
	sim.Simulate(pats)
	mustPanicMsg := func(f func()) {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		f()
	}
	mustPanicMsg(func() { sim.Simulate(pats[:2]) })
}
