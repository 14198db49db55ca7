package signoff

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/netlist"
	"aigtimer/internal/sta"
	"aigtimer/internal/transform"
)

// TestEvaluateGoldenDigest pins what a pooled evaluation computes on the
// suite designs, a 16-bit multiplier and a few fixed-seed recipe
// variants: both efforts' netlists gate by gate (cell name, fanin and
// output nets, then the POs), each effort's per-corner delay and area,
// and the selected result, floats as their bits. The mapper's match and
// candidate order and its tie-breaking are inputs to every netlist, so
// a change to any of them that is not value-transparent changes the
// digest.
func TestEvaluateGoldenDigest(t *testing.T) {
	const want = 0xdec4dc457526cf0b
	lib := cell.Builtin()
	var graphs []*aig.AIG
	for _, d := range bench.Suite() {
		graphs = append(graphs, d.Build())
	}
	graphs = append(graphs, bench.Multiplier(16))
	recipes := map[string]transform.Recipe{}
	for _, r := range transform.Recipes() {
		recipes[r.Name] = r
	}
	for _, v := range []struct {
		design, recipe string
		seed           int64
	}{
		{"EX08", "resyn2", 1},
		{"EX02", "compress2rs", 7},
		{"EX54", "churn2", 3},
		{"EX11", "mix41", 5},
	} {
		d, err := bench.ByName(v.design)
		if err != nil {
			t.Fatal(err)
		}
		graphs = append(graphs, recipes[v.recipe].Apply(d.Build(), rand.New(rand.NewSource(v.seed))))
	}
	h := fnv.New64a()
	var pool Pool
	for _, g := range graphs {
		r, st, err := pool.Evaluate(g, lib)
		if err != nil {
			t.Fatal(err)
		}
		for i := range st.nls {
			hashNetlist(h, st.nls[i])
			hashSignoff(h, st.srs[i])
		}
		hashFloat(h, r.DelayPS)
		hashFloat(h, r.AreaUM2)
		h.Write([]byte(r.Corner))
		st.Release()
	}
	if got := h.Sum64(); got != want {
		t.Fatalf("evaluation digest %#016x, want %#016x", got, uint64(want))
	}
}

func hashNetlist(h hash.Hash64, nl *netlist.Netlist) {
	for _, gt := range nl.Gates {
		h.Write([]byte(gt.Cell.Name))
		for _, in := range gt.Inputs {
			hashInt(h, int64(in))
		}
		hashInt(h, int64(gt.Output))
	}
	for _, po := range nl.POs {
		hashInt(h, int64(po))
	}
}

func hashSignoff(h hash.Hash64, sr *sta.SignoffResult) {
	for _, c := range sr.Corners {
		h.Write([]byte(c.Corner.Name))
		hashFloat(h, c.MaxDelayPS)
		hashInt(h, int64(c.CriticalPO))
	}
	hashFloat(h, sr.WorstDelayPS)
	hashFloat(h, sr.AreaUM2)
}

func hashFloat(h hash.Hash64, v float64) { hashInt(h, int64(math.Float64bits(v))) }

func hashInt(h hash.Hash64, v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
}
