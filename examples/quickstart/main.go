// Quickstart: build a small circuit as an AIG, optimize it, then map it
// onto the built-in 130nm-class library and run signoff timing analysis
// in one ground-truth evaluation.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"math/rand"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/signoff"
	"aigtimer/internal/sta"
	"aigtimer/internal/transform"
)

func main() {
	// 1. Describe a circuit: an 8-bit ripple-carry adder built directly
	// with the AIG builder API.
	b := aig.NewBuilder(16)
	carry := aig.ConstFalse
	for i := 0; i < 8; i++ {
		x, y := b.PI(i), b.PI(8+i)
		sum := b.Xor(b.Xor(x, y), carry)
		carry = b.Maj(x, y, carry)
		b.AddPO(sum)
	}
	b.AddPO(carry)
	g := b.Build()
	fmt.Printf("adder AIG: %v\n", g.Stats())

	// 2. Optimize the structure with classic transformation scripts.
	rng := rand.New(rand.NewSource(1))
	opt := transform.Recipe{Name: "resyn2", Steps: []string{"b", "rw", "rf", "b", "rw", "rwz", "b", "rfz", "rwz", "b"}}.Apply(g, rng)
	fmt.Printf("after resyn2:  %v\n", opt.Stats())
	if !aig.EquivalentExhaustive(g, opt) {
		log.Fatal("optimization changed the function!")
	}

	// 3. Map onto the built-in standard-cell library and run multi-corner
	// NLDM signoff: the ground-truth evaluation maps at two efforts and
	// keeps the faster netlist. The netlist lives in the evaluation's
	// state until the state is released.
	var pool signoff.Pool
	r, st, err := pool.Evaluate(opt, cell.Builtin())
	if err != nil {
		log.Fatal(err)
	}
	nl := r.Netlist
	fmt.Printf("mapped netlist: %s\n", nl.Stats())
	fmt.Println("cell usage:")
	for _, h := range nl.CellHistogram() {
		fmt.Printf("  %-10s x%d\n", h.Name, h.Count)
	}

	// 4. Linear-model STA for a quick look...
	fmt.Printf("\n%s", sta.Analyze(nl).Report())
	st.Release()

	// ...and the signoff number that counts.
	fmt.Printf("signoff delay (%s corner): %.1f ps, area %.1f um2\n", r.Corner, r.DelayPS, r.AreaUM2)
}
