// Custom library: define a standard-cell library in the text format,
// parse it, and map the same design onto both the custom NAND-only
// library and the built-in rich library to compare quality of results —
// the kind of what-if exploration a mapper substrate should support.
//
//	go run ./examples/customlibrary
package main

import (
	"fmt"
	"log"
	"strings"

	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/signoff"
)

// A deliberately spartan library: inverters and NAND2s only, as in the
// classic mapping textbooks.
const nandLibrary = `
library nand-only
wire_cap 0.9
output_load 4.0
cell TIE0 inputs=0 func=0x0 area=1.6 cap=0 intrinsic=0 drive=0
cell TIE1 inputs=0 func=0x1 area=1.6 cap=0 intrinsic=0 drive=0
cell INV_X1  inputs=1 func=0x1 area=3.2 cap=1.2 intrinsic=10 drive=22
cell INV_X4  inputs=1 func=0x1 area=8.0 cap=4.5 intrinsic=12 drive=6
cell NAND2_X1 inputs=2 func=0x7 area=4.8 cap=1.4 intrinsic=17 drive=26
cell NAND2_X2 inputs=2 func=0x7 area=7.2 cap=2.7 intrinsic=19 drive=13
`

func main() {
	custom, err := cell.ParseLibrary(strings.NewReader(nandLibrary))
	if err != nil {
		log.Fatal(err)
	}
	rich := cell.Builtin()

	design, err := bench.ByName("EX68")
	if err != nil {
		log.Fatal(err)
	}
	g := design.Build()
	fmt.Printf("design %s: %v\n\n", design.Name, g.Stats())

	fmt.Printf("%-12s %8s %12s %12s %10s\n", "library", "gates", "area (um2)", "delay (ps)", "depth")
	var pool signoff.Pool
	for _, lib := range []*cell.Library{custom, rich} {
		r, st, err := pool.Evaluate(g, lib)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-12s %8d %12.1f %12.1f %10d\n",
			lib.Name, r.Netlist.NumGates(), r.AreaUM2, r.DelayPS, r.Netlist.LogicDepth())
		st.Release()
	}
	fmt.Println("\nthe rich library should win on every axis: complex cells absorb")
	fmt.Println("several AIG nodes per gate, which is exactly the depth-compression")
	fmt.Println("effect that breaks the paper's level-count delay proxy.")
}
