package netlist

import (
	"strings"
	"testing"

	"aigtimer/internal/cell"
)

// wideNetlist builds one inverter driving n sink inverters.
func wideNetlist(n int) *Netlist {
	lib := cell.Builtin()
	b := MakeBuilder(lib, 1, nil)
	src := b.AddGate(lib.Inverter(), b.PINet(0))
	for i := 0; i < n; i++ {
		b.AddPO(b.AddGate(lib.Inverter(), src))
	}
	return b.Build()
}

func TestWriteVerilog(t *testing.T) {
	lib := cell.Builtin()
	b := MakeBuilder(lib, 2, nil)
	nand := b.AddGate(lib.CellByName("NAND2_X1"), b.PINet(0), b.PINet(1))
	inv := b.AddGate(lib.Inverter(), nand)
	b.AddPO(inv)
	nl := b.Build()
	var sb strings.Builder
	if err := nl.WriteVerilog(&sb, "top"); err != nil {
		t.Fatal(err)
	}
	v := sb.String()
	for _, want := range []string{
		"module top (pi0, pi1, po0);",
		"input pi0;",
		"output po0;",
		"NAND2_X1 g0 (.A(pi0), .B(pi1), .Y(n2));",
		"INV_X1 g1 (.A(n2), .Y(n3));",
		"assign po0 = n3;",
		"endmodule",
	} {
		if !strings.Contains(v, want) {
			t.Errorf("verilog missing %q:\n%s", want, v)
		}
	}
}

func TestWriteDOT(t *testing.T) {
	nl := wideNetlist(2)
	var sb strings.Builder
	if err := nl.WriteDOT(&sb, "g"); err != nil {
		t.Fatal(err)
	}
	d := sb.String()
	for _, want := range []string{"digraph", "INV_X1", "pi0 -> g0", "-> po0"} {
		if !strings.Contains(d, want) {
			t.Errorf("dot missing %q:\n%s", want, d)
		}
	}
}
