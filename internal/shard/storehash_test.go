package shard

import "testing"

// TestStoreHashFoldsOnlyGroundTruthLibraries: a ground-truth spec's
// store hash depends on the session library, other kinds' do not, and
// with the builtin library (nil bytes) every kind keeps the value its
// stores were written under before libraries entered the key.
func TestStoreHashFoldsOnlyGroundTruthLibraries(t *testing.T) {
	libA, libB := []byte("library a\n"), []byte("library b\n")
	for _, tc := range []struct {
		spec EvalSpec
		want uint64 // library-free hash, as written in existing stores
	}{
		{EvalSpec{Kind: "baseline"}, 0x96c3f4f2a7920668},
		{EvalSpec{Kind: "ground-truth"}, 0xc3aaf00e3d6edb4c},
		{EvalSpec{Kind: "ml", DelayModel: []byte(`{"trees":[]}`), AreaModel: []byte(`{}`), AreaPerNode: true}, 0x3ecf2074e03b6874},
	} {
		s := tc.spec
		if got := s.StoreHash(nil); got != tc.want {
			t.Errorf("%s: builtin store hash %#016x, want %#016x", s.Kind, got, tc.want)
		}
		a, b := s.StoreHash(libA), s.StoreHash(libB)
		if s.Kind == "ground-truth" {
			if a == tc.want || b == tc.want || a == b {
				t.Errorf("%s: store hashes %#x (A) and %#x (B) do not separate the libraries", s.Kind, a, b)
			}
			if a != s.StoreHash(append([]byte(nil), libA...)) {
				t.Errorf("%s: store hash depends on the library slice, not its bytes", s.Kind)
			}
		} else if a != tc.want || b != tc.want {
			t.Errorf("%s: store hash depends on the library", s.Kind)
		}
	}
}
