package transform

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"aigtimer/internal/truth"
)

// TestSynthProgramGoldenDigest pins the programs synthesis records:
// the ops and the output literal of the factored and the flat program
// of fixed random tables of 1 to 8 variables. A program's op order is
// the order of its AND calls, which follows the ISOP cube order and the
// factoring tree, so any change to either that is not value-transparent
// changes the digest before it changes a move.
func TestSynthProgramGoldenDigest(t *testing.T) {
	const want = 0x9ffc1b5a2f95bfda
	rng := rand.New(rand.NewSource(20))
	h := fnv.New64a()
	var b [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(b[:], v)
		h.Write(b[:])
	}
	for trial := 0; trial < 800; trial++ {
		n := 1 + trial%8
		tt := truth.New(n)
		for i := range tt.W {
			tt.W[i] = rng.Uint64()
		}
		if n < 6 {
			w := tt.W[0] & (uint64(1)<<(1<<n) - 1)
			for sh := 1 << n; sh < 64; sh <<= 1 {
				w |= w << sh
			}
			tt.W[0] = w
		}
		// Drop variables from a third of the tables, so narrow supports
		// and constants occur too.
		if trial%3 == 0 {
			for v := 0; v < n; v++ {
				if rng.Intn(3) == 0 {
					tt = tt.Cofactor(v, rng.Intn(2) == 0)
				}
			}
		}
		for _, flat := range []bool{false, true} {
			p := recordTT(tt, flat)
			put(uint32(p.k))
			put(uint32(len(p.ops)))
			for _, op := range p.ops {
				put(uint32(op[0]))
				put(uint32(op[1]))
			}
			put(uint32(p.out))
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("synthesis program digest %#016x, want %#016x", got, uint64(want))
	}
}
