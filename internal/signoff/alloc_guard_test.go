package signoff

import (
	"math/rand"
	"testing"

	"aigtimer/internal/cell"
)

// TestPooledFullEvalZeroAllocs pins the zero-allocation contract of
// the pooled full evaluation: once the pool's state (enumerator,
// mapper, netlists and STA results) is warm, a full Evaluate + Release
// cycle allocates nothing.
func TestPooledFullEvalZeroAllocs(t *testing.T) {
	lib := cell.Builtin()
	rng := rand.New(rand.NewSource(21))
	g := randomAIG(rng, 8, 300, 5)
	var pool Pool
	// Warm: two passes so every carcass in the freelist cycle has
	// reached its high-water mark.
	for i := 0; i < 2; i++ {
		_, st, err := pool.Evaluate(g, lib)
		if err != nil {
			t.Fatal(err)
		}
		st.Release()
	}
	avg := testing.AllocsPerRun(100, func() {
		_, st, err := pool.Evaluate(g, lib)
		if err != nil {
			t.Fatal(err)
		}
		st.Release()
	})
	if avg != 0 {
		t.Fatalf("pooled full evaluation allocates %v per run, want 0", avg)
	}
}
