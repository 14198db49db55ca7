package features

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/bench"
	"aigtimer/internal/transform"
)

// TestExtractGoldenDigest pins every feature vector Extract computes on
// the suite designs, a 16-bit multiplier, three fixed-seed recipe
// variants of each, and a graph whose outputs are a constant, a PI and
// a complemented AND: FNV-64a over the float64 bits of each vector in
// order. The ML flow's predictions are functions of these vectors, so
// any change to Extract that is not bit-identical changes the digest.
func TestExtractGoldenDigest(t *testing.T) {
	const want = 0x7f04924e5ae46bf5
	var graphs []*aig.AIG
	for _, d := range bench.Suite() {
		graphs = append(graphs, d.Build())
	}
	graphs = append(graphs, bench.Multiplier(16))
	recipes := map[string]transform.Recipe{}
	for _, r := range transform.Recipes() {
		recipes[r.Name] = r
	}
	variants := []struct {
		recipe string
		seed   int64
	}{{"resyn2", 1}, {"expand", 7}, {"compress2rs", 3}}
	bases := len(graphs)
	for i := 0; i < bases; i++ {
		for _, v := range variants {
			graphs = append(graphs, recipes[v.recipe].Apply(graphs[i], rand.New(rand.NewSource(v.seed))))
		}
	}
	b := aig.NewBuilder(3)
	b.AddPO(aig.ConstFalse)
	b.AddPO(b.PI(1))
	b.AddPO(b.And(b.PI(0), b.And(b.PI(1), b.PI(2))).Not())
	graphs = append(graphs, b.Build())

	h := fnv.New64a()
	var buf [8]byte
	for _, g := range graphs {
		for _, x := range Extract(g) {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
			h.Write(buf[:])
		}
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("feature digest %#016x over %d graphs, want %#016x", got, len(graphs), uint64(want))
	}
}
