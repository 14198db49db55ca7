package aig

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomDAG builds a random strashed AIG for wire tests.
func randomDAG(seed int64, pis, ands, pos int) *AIG {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(pis)
	lits := make([]Lit, 0, pis+ands)
	for i := 0; i < pis; i++ {
		lits = append(lits, b.PI(i))
	}
	for b.NumAnds() < ands {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		c := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, b.And(a, c))
	}
	for i := 0; i < pos; i++ {
		b.AddPO(lits[len(lits)-1-rng.Intn(len(lits)/2)].NotIf(rng.Intn(2) == 0))
	}
	return b.Build()
}

// mutate returns a structurally perturbed copy of g: roughly one in
// `rate` nodes is rebuilt with fresh structure (dirtying its transitive
// fanout), the rest reconstructed as-is.
func mutate(g *AIG, seed int64, rate int) *AIG {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(g.NumPIs())
	m := make([]Lit, g.NumNodes())
	m[0] = ConstFalse
	for i := 1; i <= g.NumPIs(); i++ {
		m[i] = b.PI(i - 1)
	}
	g.TopoForEachAnd(func(n int32, f0, f1 Lit) {
		a := m[f0.Node()].NotIf(f0.IsCompl())
		c := m[f1.Node()].NotIf(f1.IsCompl())
		if rng.Intn(rate) == 0 {
			// Replace this node with a different composition, dirtying
			// its transitive fanout.
			m[n] = b.Or(a, c).NotIf(rng.Intn(2) == 0)
			return
		}
		m[n] = b.And(a, c)
	})
	for _, po := range g.POs() {
		b.AddPO(m[po.Node()].NotIf(po.IsCompl()))
	}
	return b.Build()
}

// wireBytes is the canonical byte form used to assert exact (not just
// isomorphic) reconstruction.
func wireBytes(t *testing.T, g *AIG) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDeltaWireRoundTripExact(t *testing.T) {
	base := randomDAG(1, 8, 120, 4)
	for seed := int64(0); seed < 12; seed++ {
		g := mutate(base, 100+seed, 8)
		data, err := EncodeDelta(base, g)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeDelta(base, data)
		if err != nil {
			t.Fatal(err)
		}
		if !got.StructuralEqual(g) {
			t.Fatalf("seed %d: decoded graph not structurally identical", seed)
		}
		if !bytes.Equal(wireBytes(t, got), wireBytes(t, g)) {
			t.Fatalf("seed %d: decoded graph serializes differently", seed)
		}
	}
}

// The encoder must preserve node order even though its matcher is the
// same one Rebase uses — a rebased graph must round-trip to the rebased
// order, the original to the original order.
func TestDeltaWirePreservesOrder(t *testing.T) {
	base := randomDAG(2, 6, 80, 3)
	g := mutate(base, 7, 8)
	rb := new(Builder).Rebase(base, g)
	for _, c := range []*AIG{g, rb} {
		data, err := EncodeDelta(base, c)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeDelta(base, data)
		if err != nil {
			t.Fatal(err)
		}
		if !got.StructuralEqual(c) {
			t.Fatal("order not preserved through the wire")
		}
	}
	// For the rebased form the back-referenced set is exactly the
	// matched prefix.
	data, err := EncodeDelta(base, rb)
	if err != nil {
		t.Fatal(err)
	}
	matched, explicit, err := DeltaWireMatched(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := matchedPrefix(t, base, g, rb); matched != want || explicit != rb.NumAnds()-want {
		t.Fatalf("wire split %d/%d, rebase matched %d of %d",
			matched, explicit, want, rb.NumAnds())
	}
}

// A warm graph (identical to base) must encode to back-references only;
// an unrelated graph must still round-trip, all-explicit.
func TestDeltaWireExtremes(t *testing.T) {
	base := randomDAG(3, 8, 100, 4)
	data, err := EncodeDelta(base, base)
	if err != nil {
		t.Fatal(err)
	}
	matched, explicit, err := DeltaWireMatched(data)
	if err != nil {
		t.Fatal(err)
	}
	if explicit != 0 || matched != base.NumAnds() {
		t.Fatalf("self-encoding not all back-references: %d/%d", matched, explicit)
	}
	got, err := DecodeDelta(base, data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.StructuralEqual(base) {
		t.Fatal("self round-trip broken")
	}

	other := randomDAG(99, 8, 60, 2) // same PI count, unrelated structure
	data, err = EncodeDelta(base, other)
	if err != nil {
		t.Fatal(err)
	}
	got, err = DecodeDelta(base, data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.StructuralEqual(other) {
		t.Fatal("unrelated round-trip broken")
	}
}

func TestDeltaWireCompression(t *testing.T) {
	base := randomDAG(4, 8, 400, 4)
	g := mutate(base, 11, 64)
	data, err := EncodeDelta(base, g)
	if err != nil {
		t.Fatal(err)
	}
	full := wireBytes(t, g)
	if len(data) >= len(full) {
		t.Fatalf("delta record (%dB) not smaller than full graph (%dB) for a mostly-shared mutation", len(data), len(full))
	}
}

func TestDeltaWireErrors(t *testing.T) {
	base := randomDAG(5, 8, 50, 2)
	if _, err := EncodeDelta(base, randomDAG(6, 9, 50, 2)); err == nil {
		t.Fatal("PI mismatch accepted")
	}
	g := mutate(base, 3, 8)
	data, err := EncodeDelta(base, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeDelta(base, nil); err == nil {
		t.Fatal("empty record accepted")
	}
	if _, err := DecodeDelta(base, data[:len(data)/2]); err == nil {
		t.Fatal("truncated record accepted")
	}
	if _, err := DecodeDelta(base, append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	if _, err := DecodeDelta(randomDAG(7, 7, 50, 2), data); err == nil {
		t.Fatal("wrong-base decode accepted (PI count)")
	}
}

func FuzzDeltaWireDecode(f *testing.F) {
	base := randomDAG(8, 6, 40, 2)
	seed, _ := EncodeDelta(base, mutate(base, 1, 8))
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := DecodeDelta(base, data)
		if err != nil {
			return
		}
		// Whatever decodes must be a well-formed graph: re-encode and
		// decode again to the identical structure.
		again, err := EncodeDelta(base, g)
		if err != nil {
			t.Fatalf("decoded graph does not re-encode: %v", err)
		}
		g2, err := DecodeDelta(base, again)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if !g2.StructuralEqual(g) {
			t.Fatal("re-encode round trip diverged")
		}
	})
}
