package cut

import (
	"testing"

	"aigtimer/internal/bench"
)

// TestEnumeratorZeroAllocs guards the retained enumeration path: once
// an Enumerator has enumerated EX08, enumerating it again, at a single
// budget or at the signoff effort pair, must not touch the heap.
func TestEnumeratorZeroAllocs(t *testing.T) {
	d, err := bench.ByName("EX08")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	var e Enumerator
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"Enumerate", func() { e.Enumerate(g, DefaultParams) }},
		{"EnumerateDual", func() { e.EnumerateDual(g, Params{4, 8}, Params{4, 24}) }},
	} {
		c.run() // warm
		if avg := testing.AllocsPerRun(20, c.run); avg != 0 {
			t.Errorf("%s allocates %.1f objects per run, want 0", c.name, avg)
		}
	}
}
