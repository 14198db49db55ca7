// Command aigstat inspects an AIG or a suite design: structural
// statistics, the Table II feature vector, mapped-netlist summary, signoff
// timing, and optional Verilog / DOT / AIGER exports.
//
// Examples:
//
//	aigstat -design EX08
//	aigstat -in my.aag -features -verilog out.v -dot out.dot
//	aigstat -design EX00 -aig out.aig    # binary AIGER export
package main

import (
	"flag"
	"fmt"
	"os"

	"aigtimer/internal/aig"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/features"
	"aigtimer/internal/signoff"
	"aigtimer/internal/sta"
)

func main() {
	var (
		designName = flag.String("design", "", "benchmark suite design (EX00..EX68)")
		inPath     = flag.String("in", "", "input AIG file (text aag or binary aig)")
		showFeats  = flag.Bool("features", false, "print the Table II feature vector")
		verilogOut = flag.String("verilog", "", "write mapped structural Verilog here")
		dotOut     = flag.String("dot", "", "write mapped-netlist Graphviz here")
		aigOut     = flag.String("aig", "", "write binary AIGER here")
	)
	flag.Parse()

	g, name, err := load(*designName, *inPath)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s: %v\n", name, g.Stats())
	cones := g.POCones()
	for _, c := range cones {
		fmt.Printf("  PO%-3d depth=%-4d ands=%-5d support=%-3d log2(paths)=%.1f\n",
			c.PO, c.Depth, c.Ands, c.Supports, log2(c.PathCount))
	}

	if *showFeats {
		v := features.Extract(g)
		fmt.Println("features:")
		for i, x := range v {
			fmt.Printf("  %-36s %g\n", features.Names[i], x)
		}
	}

	var pool signoff.Pool
	r, st, err := pool.Evaluate(g, cell.Builtin())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("mapped: %s, logic depth %d\n", r.Netlist.Stats(), r.Netlist.LogicDepth())
	fmt.Printf("signoff (%s corner): %.1f ps\n", r.Corner, r.DelayPS)
	lin := sta.Analyze(r.Netlist)
	fmt.Printf("critical path:\n%s", lin.Report())

	if *verilogOut != "" {
		writeTo(*verilogOut, func(f *os.File) error { return r.Netlist.WriteVerilog(f, name) })
	}
	if *dotOut != "" {
		writeTo(*dotOut, func(f *os.File) error { return r.Netlist.WriteDOT(f, name) })
	}
	st.Release() // r.Netlist is the state's storage: read it before this
	if *aigOut != "" {
		writeTo(*aigOut, func(f *os.File) error { return g.WriteBinary(f) })
	}
}

func load(design, in string) (*aig.AIG, string, error) {
	switch {
	case design != "" && in != "":
		return nil, "", fmt.Errorf("aigstat: -design and -in are mutually exclusive")
	case design != "":
		d, err := bench.ByName(design)
		if err != nil {
			return nil, "", err
		}
		return d.Build(), d.Name, nil
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		// Sniff the header: both formats start with "aag"/"aig".
		var magic [3]byte
		if _, err := f.Read(magic[:]); err != nil {
			return nil, "", err
		}
		if _, err := f.Seek(0, 0); err != nil {
			return nil, "", err
		}
		var g *aig.AIG
		if string(magic[:]) == "aig" {
			g, err = aig.ParseBinary(f)
		} else {
			g, err = aig.Parse(f)
		}
		if err != nil {
			return nil, "", err
		}
		return g, in, nil
	default:
		return nil, "", fmt.Errorf("aigstat: one of -design or -in is required")
	}
}

func writeTo(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
}

func log2(x float64) float64 {
	if x <= 0 {
		return 0
	}
	n := 0.0
	for x >= 2 {
		x /= 2
		n++
	}
	return n
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
