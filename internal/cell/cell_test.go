package cell

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"aigtimer/internal/truth"
)

func TestBuiltinLoads(t *testing.T) {
	lib := Builtin()
	if lib.Name != "generic130" {
		t.Fatalf("name = %q", lib.Name)
	}
	if len(lib.Cells) < 20 {
		t.Fatalf("only %d cells", len(lib.Cells))
	}
	if lib.Inverter() == nil || lib.Inverter().Name != "INV_X1" {
		t.Fatalf("smallest inverter = %+v", lib.Inverter())
	}
	if lib.Buffer() == nil || !lib.Buffer().IsBuffer() {
		t.Fatalf("buffer wrong")
	}
	if lib.Tie(false) == nil || lib.Tie(true) == nil {
		t.Fatalf("tie cells missing")
	}
	if lib.CellByName("NAND2_X1") == nil {
		t.Fatalf("NAND2_X1 missing")
	}
	if lib.CellByName("NO_SUCH") != nil {
		t.Fatalf("phantom cell")
	}
}

func TestCellDelayModel(t *testing.T) {
	c := &Cell{IntrinsicPS: 10, DrivePSPerFF: 20}
	if got := c.DelayPS(2.5); got != 60 {
		t.Fatalf("DelayPS = %v, want 60", got)
	}
}

// simulate evaluates a match against leaf values and compares with the
// expected cut-function value.
func TestMatchesRealizeFunctions(t *testing.T) {
	lib := Builtin()
	cases := []struct {
		name   string
		k      int
		f      uint16 // function over k leaves, low bits
		expect bool   // direct match expected?
	}{
		{"and2", 2, 0x8, true},
		{"nand2", 2, 0x7, true},
		{"or2", 2, 0xe, true},
		{"xor2", 2, 0x6, true},
		{"and-or: (a·b)+c", 3, 0xf8, true}, // matched by AOI21 complement? direct via OR of AND... check below
		{"aoi21", 3, 0x07, true},
		{"mux", 3, 0xca, true},
		{"and4", 4, 0x8000, true},
	}
	for _, tc := range cases {
		padded := truth.PadTo4(tc.f, tc.k)
		ms := lib.Matches(padded, tc.k)
		if tc.expect && len(ms) == 0 {
			// (a·b)+c has no single-cell direct form in our library, it
			// is the complement of AOI21; tolerate that one.
			if tc.name == "and-or: (a·b)+c" {
				if len(lib.Matches(^padded, tc.k)) == 0 {
					t.Errorf("%s: no direct or complemented match", tc.name)
				}
				continue
			}
			t.Errorf("%s: no match for %04x", tc.name, padded)
			continue
		}
		// Verify every returned match functionally.
		for _, m := range ms {
			if !matchConsistent(m, padded, tc.k) {
				t.Errorf("%s: match %s is functionally wrong", tc.name, m.Cell.Name)
			}
		}
	}
}

func matchConsistent(m Match, cutF uint16, numLeaves int) bool {
	n := 1 << numLeaves
	for mt := 0; mt < n; mt++ {
		// Build the cell input minterm from leaf values.
		var cm int
		for j := 0; j < m.Cell.NumInputs; j++ {
			bit := mt >> m.PinVar[j] & 1
			bit ^= int(m.PinInv >> j & 1)
			cm |= bit << j
		}
		if (m.Cell.Function>>cm&1 == 1) != (cutF>>mt&1 == 1) {
			return false
		}
	}
	return true
}

func TestMatchesRespectLeafCount(t *testing.T) {
	lib := Builtin()
	// AND over leaves 0 and 2 of a 3-leaf cut: table depends on vars 0,2.
	var f uint16
	for m := 0; m < 16; m++ {
		if m&1 == 1 && m&4 == 4 {
			f |= 1 << m
		}
	}
	ms := lib.Matches(f, 3)
	if len(ms) == 0 {
		t.Fatalf("no match for AND(leaf0, leaf2)")
	}
	for _, m := range ms {
		for j := 0; j < m.Cell.NumInputs; j++ {
			if m.PinVar[j] >= 3 {
				t.Errorf("match %s uses leaf %d beyond cut size", m.Cell.Name, m.PinVar[j])
			}
		}
	}
	// With only 2 leaves, the same table must not match (it needs leaf 2).
	if got := lib.Matches(f, 2); len(got) != 0 {
		t.Errorf("AND(leaf0,leaf2) matched with 2 leaves: %v", got)
	}
}

func TestMatchesSortedByArea(t *testing.T) {
	lib := Builtin()
	f := truth.PadTo4(0x7, 2) // NAND2: two drive strengths available
	ms := lib.Matches(f, 2)
	if len(ms) < 2 {
		t.Fatalf("expected multiple NAND2 matches, got %d", len(ms))
	}
	for i := 1; i < len(ms); i++ {
		if ms[i].Cell.AreaUM2 < ms[i-1].Cell.AreaUM2 {
			t.Fatalf("matches not sorted by area")
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"", // no library line
		"library x\ncell A inputs=9 func=0x0 area=1",        // bad inputs
		"library x\ncell A inputs=1 area=1",                 // ok inputs but no inverter/ties at finalize
		"library x\nwire_cap -3",                            // handled: two fields but negative
		"library x\nwire_cap",                               // missing value
		"library x\nbogus 3",                                // unknown directive
		"library x\ncell A inputs=1 func=0xZZ area=1",       // bad func
		"library x\ncell A inputs=1 func=0x1 area=1 area=2", // duplicate attr
		"library x\ncell A inputs=1 func=0x1 bad=1 area=1",  // unknown attr
		"library x\ncell A",                                 // missing attrs
	}
	// NaN and the infinities, in every numeric field of a valid library.
	for _, line := range nonFiniteLines {
		cases = append(cases, builtinText+line+"\n")
	}
	for _, c := range cases {
		if _, err := ParseLibrary(strings.NewReader(c)); err == nil {
			t.Errorf("ParseLibrary(%q) succeeded", c)
		}
	}
}

// randomCellsLibrary returns the builtin library with n cells of
// random 4-input functions appended. Almost every such function has
// all 384 pin realizations, so n above 85 passes maxMatches.
func randomCellsLibrary(n int, seed int64) string {
	rng := rand.New(rand.NewSource(seed))
	var sb strings.Builder
	sb.WriteString(builtinText)
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "cell R%d inputs=4 func=0x%04x area=%.1f cap=1.5 intrinsic=40 drive=20\n",
			i, rng.Intn(1<<16), 8+rng.Float64()*8)
	}
	return sb.String()
}

// TestParseRefusesOversizedLibrary: 143 KB of text holding 2,000 random
// 4-input cells would realize about 480,000 matches (about 40 MB
// retained); ParseLibrary refuses it once the count passes maxMatches,
// having allocated about 9 MiB (the parsed cells, their timing tables
// and the matches below the cap), while a library under the cap parses.
func TestParseRefusesOversizedLibrary(t *testing.T) {
	src := randomCellsLibrary(2000, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ParseLibrary(strings.NewReader(src))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "matches") {
		t.Fatalf("ParseLibrary of %d bytes and 2,000 random cells: err = %v, want a match-count refusal", len(src), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 16<<20 {
		t.Fatalf("refusing the library allocated %d bytes, want at most 16 MiB", alloc)
	}
	lib, err := ParseLibrary(strings.NewReader(randomCellsLibrary(80, 1)))
	if err != nil {
		t.Fatalf("a library of 80 random cells is refused: %v", err)
	}
	if lib.NumMatchableFunctions() <= Builtin().NumMatchableFunctions() {
		t.Fatal("random cells add no matchable functions")
	}
}

func TestParseRoundTripSemantics(t *testing.T) {
	src := `
library tiny
wire_cap 0.5
output_load 2.0
cell TIE0 inputs=0 func=0x0 area=1 cap=0 intrinsic=0 drive=0
cell TIE1 inputs=0 func=0x1 area=1 cap=0 intrinsic=0 drive=0
cell INV inputs=1 func=0x1 area=2 cap=1 intrinsic=5 drive=10
cell NAND2 inputs=2 func=0x7 area=3 cap=1.5 intrinsic=8 drive=12
`
	lib, err := ParseLibrary(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if lib.WireCapFF != 0.5 || lib.OutputLoadFF != 2.0 {
		t.Fatalf("params wrong: %+v", lib)
	}
	nand := lib.CellByName("NAND2")
	if nand == nil || nand.Function != truth.PadTo4(0x7, 2) {
		t.Fatalf("NAND2 wrong: %+v", nand)
	}
	if lib.NumMatchableFunctions() == 0 {
		t.Fatalf("no matchable functions")
	}
	// duplicate cell name must fail
	if _, err := ParseLibrary(strings.NewReader(src + "cell INV inputs=1 func=0x1 area=2 cap=1 intrinsic=5 drive=10\n")); err == nil {
		t.Fatalf("duplicate cell accepted")
	}
}
