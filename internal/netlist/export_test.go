package netlist

import (
	"math/rand"
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

func TestInsertBuffersBoundsFanout(t *testing.T) {
	nl := wideNetlist(20)
	if nl.MaxFanout() != 20 {
		t.Fatalf("setup: max fanout %d", nl.MaxFanout())
	}
	for _, mf := range []int{2, 4, 8} {
		buffered, err := nl.InsertBuffers(mf)
		if err != nil {
			t.Fatal(err)
		}
		if got := buffered.MaxFanout(); got > mf {
			t.Errorf("maxFanout=%d: got fanout %d", mf, got)
		}
		// Function preserved on both PI values.
		for _, v := range []bool{false, true} {
			want := nl.Eval([]bool{v})
			got := buffered.Eval([]bool{v})
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("maxFanout=%d: PO %d differs", mf, i)
				}
			}
		}
	}
}

func TestInsertBuffersNoopOnLowFanout(t *testing.T) {
	lib := cell.Builtin()
	b := MakeBuilder(lib, 2, nil)
	n := b.AddGate(lib.CellByName("NAND2_X1"), b.PINet(0), b.PINet(1))
	b.AddPO(n)
	nl := b.Build()
	out, err := nl.InsertBuffers(4)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumGates() != nl.NumGates() {
		t.Fatalf("buffering a low-fanout netlist changed it: %d -> %d gates",
			nl.NumGates(), out.NumGates())
	}
}

func TestInsertBuffersValidation(t *testing.T) {
	nl := wideNetlist(4)
	if _, err := nl.InsertBuffers(1); err == nil {
		t.Fatal("maxFanout=1 accepted")
	}
}

func TestInsertBuffersRandomEquivalence(t *testing.T) {
	lib := cell.Builtin()
	rng := rand.New(rand.NewSource(3))
	b := MakeBuilder(lib, 4, nil)
	nets := []NetID{b.PINet(0), b.PINet(1), b.PINet(2), b.PINet(3)}
	for i := 0; i < 40; i++ {
		c := lib.CellByName("NAND2_X1")
		n := b.AddGate(c, nets[rng.Intn(len(nets))], nets[rng.Intn(len(nets))])
		nets = append(nets, n)
	}
	for i := 0; i < 5; i++ {
		b.AddPO(nets[len(nets)-1-rng.Intn(10)])
	}
	nl := b.Build()
	buffered, err := nl.InsertBuffers(3)
	if err != nil {
		t.Fatal(err)
	}
	if buffered.MaxFanout() > 3 {
		t.Fatalf("fanout bound violated: %d", buffered.MaxFanout())
	}
	in := make([]bool, 4)
	for m := 0; m < 16; m++ {
		for i := range in {
			in[i] = m>>i&1 == 1
		}
		want := nl.Eval(in)
		got := buffered.Eval(in)
		for i := range want {
			if want[i] != got[i] {
				t.Fatalf("minterm %d PO %d differs", m, i)
			}
		}
	}
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
