package truth

import (
	"math/rand"
	"slices"
	"testing"

	"aigtimer/internal/aig"
)

// refISOP is the Minato-Morreale recursion written directly on TT
// values, every intermediate table freshly allocated: the oracle for
// the cube order Synth.ISOP produces in its retained storage.
func refISOP(L, U TT, topVar int) (Cover, TT) {
	if L.IsZero() {
		return nil, New(L.N)
	}
	if U.IsOne() {
		return Cover{{}}, Const(L.N, true)
	}
	v := topVar
	for !L.DependsOn(v) && !U.DependsOn(v) {
		v--
	}
	L0, L1 := L.Cofactor(v, false), L.Cofactor(v, true)
	U0, U1 := U.Cofactor(v, false), U.Cofactor(v, true)
	c0, f0 := refISOP(L0.AndNot(U1), U0, v-1)
	c1, f1 := refISOP(L1.AndNot(U0), U1, v-1)
	c2, f2 := refISOP(L0.AndNot(f0).Or(L1.AndNot(f1)), U0.And(U1), v-1)
	var out Cover
	for _, c := range c0 {
		out = append(out, c.WithLit(v, false))
	}
	for _, c := range c1 {
		out = append(out, c.WithLit(v, true))
	}
	out = append(out, c2...)
	vt := Var(L.N, v)
	return out, vt.Not().And(f0).Or(vt.And(f1)).Or(f2)
}

// TestISOPMatchesReference checks that one retained Synth returns the
// oracle's cubes in the oracle's order at every width up to 10
// variables, with and without don't-cares.
func TestISOPMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	var s Synth
	for trial := 0; trial < 400; trial++ {
		n := 1 + trial%10
		L, U := randTT(rng, n), randTT(rng, n)
		if trial%2 == 0 {
			U = L
		} else {
			L, U = L.And(U), L.Or(U)
		}
		want, _ := refISOP(L, U, n-1)
		if got := s.ISOP(L, U); !slices.Equal(got, want) {
			t.Fatalf("n=%d trial %d: cover %v, want %v", n, trial, got, want)
		}
	}
}

// TestSynthZeroAllocs guards the retained synthesis path: once a Synth
// has served a table, synthesizing it again into a reset builder
// allocates nothing.
func TestSynthZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	var s Synth
	b := aig.NewBuilder(8)
	ins := make([]aig.Lit, 8)
	for _, n := range []int{4, 6, 8} {
		tt := randTT(rng, n)
		run := func() {
			b.Reset(n, 0)
			for i := range ins[:n] {
				ins[i] = b.PI(i)
			}
			s.Synthesize(b, ins[:n], tt)
		}
		run()
		if got := testing.AllocsPerRun(10, run); got != 0 {
			t.Errorf("n=%d: warm Synthesize allocates %v objects, want 0", n, got)
		}
	}
}
