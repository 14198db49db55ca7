package cell

import (
	"strings"
	"testing"
)

// nonFiniteLines are library lines whose numbers parse as floats but
// are not finite; TestParseErrors appends each to a valid library.
var nonFiniteLines = []string{
	"cell X inputs=2 func=0x7 area=NaN cap=1 intrinsic=1 drive=1",
	"cell X inputs=2 func=0x7 area=+Inf cap=1 intrinsic=1 drive=1",
	"cell X inputs=2 func=0x7 area=1 cap=NaN intrinsic=1 drive=1",
	"cell X inputs=2 func=0x7 area=1 cap=1 intrinsic=+Inf drive=1",
	"cell X inputs=2 func=0x7 area=1 cap=1 intrinsic=1 drive=-Inf",
	"cell X inputs=2 func=0x7 area=1 cap=1 intrinsic=1 drive=nan",
	"wire_cap NaN",
	"wire_cap inf",
	"output_load +Inf",
}

// FuzzParseLibrary feeds arbitrary text to ParseLibrary. It must never
// panic, and a library it accepts must survive WriteLibrary and a
// second parse with equal cells and equal Matches on sampled functions.
func FuzzParseLibrary(f *testing.F) {
	f.Add(builtinText)
	for _, line := range nonFiniteLines {
		f.Add(builtinText + line + "\n")
	}
	f.Add(randomCellsLibrary(100, 2)) // past maxMatches: refused
	at := maxCells - len(Builtin().Cells)
	f.Add(inverterLibrary(at))     // exactly maxCells: accepted
	f.Add(inverterLibrary(at + 1)) // past maxCells: refused
	f.Add("library t\ncell T0 inputs=0 func=0x0 area=1\ncell T1 inputs=0 func=0x1 area=1\ncell I inputs=1 func=0x1 area=1\ncell M inputs=4 func=0x6996 area=2 cap=1e-3 intrinsic=0 drive=1e300\n")
	f.Fuzz(func(t *testing.T, src string) {
		lib, err := ParseLibrary(strings.NewReader(src))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteLibrary(&sb, lib); err != nil {
			t.Fatal(err)
		}
		back, err := ParseLibrary(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("written library does not parse: %v\n%s", err, sb.String())
		}
		if back.Name != lib.Name || back.WireCapFF != lib.WireCapFF ||
			back.OutputLoadFF != lib.OutputLoadFF || len(back.Cells) != len(lib.Cells) {
			t.Fatalf("library header differs after a round trip")
		}
		for i, c := range lib.Cells {
			b := back.Cells[i]
			if b.Name != c.Name || b.NumInputs != c.NumInputs || b.Function != c.Function ||
				b.AreaUM2 != c.AreaUM2 || b.InputCapFF != c.InputCapFF ||
				b.IntrinsicPS != c.IntrinsicPS || b.DrivePSPerFF != c.DrivePSPerFF {
				t.Fatalf("cell %d (%s) differs after a round trip", i, c.Name)
			}
		}
		if back.NumMatchableFunctions() != lib.NumMatchableFunctions() {
			t.Fatalf("%d matchable functions after a round trip, want %d",
				back.NumMatchableFunctions(), lib.NumMatchableFunctions())
		}
		// Sample a stride of all functions plus every cell's own
		// function and its complement, which mostly do have matches.
		var fns []uint16
		for fn := 0; fn < 1<<16; fn += 251 {
			fns = append(fns, uint16(fn))
		}
		for _, c := range lib.Cells {
			fns = append(fns, c.Function, ^c.Function)
		}
		for _, fn := range fns {
			for nl := 0; nl <= 4; nl++ {
				want, got := lib.Matches(fn, nl), back.Matches(fn, nl)
				if len(got) != len(want) {
					t.Fatalf("Matches(%#04x, %d): %d matches after a round trip, want %d", fn, nl, len(got), len(want))
				}
				for j := range want {
					if got[j].Cell.Name != want[j].Cell.Name || got[j].PinVar != want[j].PinVar || got[j].PinInv != want[j].PinInv {
						t.Fatalf("Matches(%#04x, %d)[%d] differs after a round trip", fn, nl, j)
					}
				}
			}
		}
	})
}
