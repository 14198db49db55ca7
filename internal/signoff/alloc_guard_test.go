package signoff

import (
	"math/rand"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
)

// TestPooledFullEvalZeroAllocs pins the zero-allocation contract of
// the pooled full evaluation: once the pool's arena, mapping and STA
// scratches, and result carcasses are warm, a full EvaluateState +
// Release cycle allocates nothing.
func TestPooledFullEvalZeroAllocs(t *testing.T) {
	lib := cell.Builtin()
	rng := rand.New(rand.NewSource(21))
	g := randomAIG(rng, 8, 300, 5)
	pool := NewPool()
	// Warm: two passes so every carcass in the freelist cycle has
	// reached its high-water mark.
	for i := 0; i < 2; i++ {
		_, st, err := pool.EvaluateState(g, lib)
		if err != nil {
			t.Fatal(err)
		}
		st.Release()
	}
	avg := testing.AllocsPerRun(100, func() {
		_, st, err := pool.EvaluateState(g, lib)
		if err != nil {
			t.Fatal(err)
		}
		st.Release()
	})
	if avg != 0 {
		t.Fatalf("pooled full evaluation allocates %v per run, want 0", avg)
	}
}

// TestPooledDeltaEvalZeroAllocs pins the same contract for the pooled
// delta path: per-effort remaps plus seeded multi-corner STA,
// allocation-free once warm.
func TestPooledDeltaEvalZeroAllocs(t *testing.T) {
	lib := cell.Builtin()
	rng := rand.New(rand.NewSource(22))
	g := randomAIG(rng, 8, 250, 4)
	pool := NewPool()
	_, anchor, err := pool.EvaluateState(g, lib)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-generate rebased candidates so the measured loop does no
	// graph construction of its own.
	type cand struct {
		next *aig.AIG
		d    *aig.Delta
	}
	cands := make([]cand, 32)
	for i := range cands {
		next, d := aig.Rebase(g, mutate(g, rng))
		cands[i] = cand{next, d}
	}
	// Warm every candidate once (sizes differ slightly; the scratch
	// high-water mark must cover them all).
	for _, c := range cands {
		_, st, err := anchor.EvaluateDelta(c.next, c.d)
		if err != nil {
			t.Fatal(err)
		}
		st.Release()
	}
	i := 0
	avg := testing.AllocsPerRun(100, func() {
		c := cands[i%len(cands)]
		i++
		_, st, err := anchor.EvaluateDelta(c.next, c.d)
		if err != nil {
			t.Fatal(err)
		}
		st.Release()
	})
	if avg != 0 {
		t.Fatalf("pooled delta evaluation allocates %v per run, want 0", avg)
	}
}
