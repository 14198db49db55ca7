package netlist

import (
	"testing"

	"aigtimer/internal/cell"
)

func TestBuilderAndQueries(t *testing.T) {
	lib := cell.Builtin()
	b := MakeBuilder(lib, 2, nil)
	nand := b.AddGate(lib.CellByName("NAND2_X1"), b.PINet(0), b.PINet(1))
	inv := b.AddGate(lib.Inverter(), nand)
	b.AddPO(inv)
	b.AddPO(nand)
	nl := b.Build()

	if nl.NumGates() != 2 || nl.NumNets() != 4 {
		t.Fatalf("gates=%d nets=%d", nl.NumGates(), nl.NumNets())
	}
	if nl.Driver(NetID(0)) != -1 || nl.Driver(nand) != 0 || nl.Driver(inv) != 1 {
		t.Fatalf("Driver wrong")
	}
	if got := len(nl.Fanouts(nand)); got != 1 {
		t.Fatalf("fanouts(nand) = %d", got)
	}
	wantArea := lib.CellByName("NAND2_X1").AreaUM2 + lib.Inverter().AreaUM2
	if nl.AreaUM2() != wantArea {
		t.Fatalf("area = %v want %v", nl.AreaUM2(), wantArea)
	}
	hist := nl.CellHistogram()
	if len(hist) != 2 {
		t.Fatalf("histogram: %+v", hist)
	}
	if nl.Stats() == "" {
		t.Fatal("empty stats")
	}
}

func TestLoadModel(t *testing.T) {
	lib := cell.Builtin()
	b := MakeBuilder(lib, 1, nil)
	inv1 := b.AddGate(lib.Inverter(), b.PINet(0))
	// inv1 feeds two inverters and one PO.
	b.AddGate(lib.Inverter(), inv1)
	b.AddGate(lib.Inverter(), inv1)
	b.AddPO(inv1)
	nl := b.Build()

	want := 2*lib.Inverter().InputCapFF + 3*lib.WireCapFF + lib.OutputLoadFF
	if got := nl.LoadFF(inv1); got != want {
		t.Fatalf("LoadFF = %v, want %v", got, want)
	}
}

func TestEvalNandInv(t *testing.T) {
	lib := cell.Builtin()
	b := MakeBuilder(lib, 2, nil)
	nand := b.AddGate(lib.CellByName("NAND2_X1"), b.PINet(0), b.PINet(1))
	and := b.AddGate(lib.Inverter(), nand)
	b.AddPO(and)
	nl := b.Build()
	for m := 0; m < 4; m++ {
		in := []bool{m&1 == 1, m&2 == 2}
		got := nl.Eval(in)[0]
		want := in[0] && in[1]
		if got != want {
			t.Errorf("AND(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestEvalMultiInputCells(t *testing.T) {
	lib := cell.Builtin()
	b := MakeBuilder(lib, 3, nil)
	aoi := b.AddGate(lib.CellByName("AOI21_X1"), b.PINet(0), b.PINet(1), b.PINet(2))
	b.AddPO(aoi)
	nl := b.Build()
	for m := 0; m < 8; m++ {
		in := []bool{m&1 == 1, m&2 == 2, m&4 == 4}
		want := !((in[0] && in[1]) || in[2])
		if got := nl.Eval(in)[0]; got != want {
			t.Errorf("AOI21(%v) = %v, want %v", in, got, want)
		}
	}
}

func TestLogicDepth(t *testing.T) {
	lib := cell.Builtin()
	b := MakeBuilder(lib, 2, nil)
	n := b.AddGate(lib.CellByName("NAND2_X1"), b.PINet(0), b.PINet(1))
	n = b.AddGate(lib.Inverter(), n)
	n = b.AddGate(lib.Inverter(), n)
	b.AddPO(n)
	b.AddPO(b.PINet(0))
	nl := b.Build()
	if got := nl.LogicDepth(); got != 3 {
		t.Fatalf("LogicDepth = %d, want 3", got)
	}
}

func TestBuilderPanics(t *testing.T) {
	lib := cell.Builtin()
	b := MakeBuilder(lib, 1, nil)
	mustPanic(t, func() { b.PINet(1) })
	mustPanic(t, func() { b.AddGate(lib.Inverter(), NetID(5)) })
	mustPanic(t, func() { b.AddGate(lib.Inverter()) })
	mustPanic(t, func() { b.AddPO(NetID(9)) })
	nl := b.Build()
	mustPanic(t, func() { nl.Eval([]bool{true, false}) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic")
		}
	}()
	f()
}
