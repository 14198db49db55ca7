package aig

// ConeNodes returns the AND-node indices in the transitive fanin cone of
// root (an AND node index), in topological order, stopping at PIs.
func (g *AIG) ConeNodes(root int32) []int32 {
	if !g.IsAnd(root) {
		return nil
	}
	seen := make(map[int32]bool)
	var out []int32
	var visit func(n int32)
	visit = func(n int32) {
		if seen[n] || !g.IsAnd(n) {
			return
		}
		seen[n] = true
		nd := g.nodes[n]
		visit(nd.fanin0.Node())
		visit(nd.fanin1.Node())
		out = append(out, n)
	}
	visit(root)
	return out
}

// POCone describes the logic cone of a single primary output.
type POCone struct {
	PO        int     // output index
	Ands      int     // AND nodes in the cone
	Depth     int32   // maximum level within the cone
	Supports  int     // number of PIs in the transitive fanin
	PathCount float64 // number of PI-to-PO paths (saturating float)
}

// POCones computes, for every primary output, the size, depth, support and
// path count of its logic cone. Path counts follow the paper's
// "number_of_paths" feature: the number of distinct directed paths from any
// PI to the PO, computed by dynamic programming over the DAG (float64 to
// tolerate exponential growth on multiplier-like cones).
func (g *AIG) POCones() []POCone {
	lv := g.Levels()
	// paths[n] = number of PI-to-n paths through the fanin cone.
	paths := make([]float64, len(g.nodes))
	for i := 1; i <= g.numPIs; i++ {
		paths[i] = 1
	}
	for i := g.numPIs + 1; i < len(g.nodes); i++ {
		nd := g.nodes[i]
		paths[i] = paths[nd.fanin0.Node()] + paths[nd.fanin1.Node()]
	}

	out := make([]POCone, len(g.pos))
	for pi, po := range g.pos {
		n := po.Node()
		c := POCone{PO: pi, PathCount: paths[n], Depth: lv[n]}
		if g.IsAnd(n) {
			cone := g.ConeNodes(n)
			c.Ands = len(cone)
			sup := make(map[int32]bool)
			for _, cn := range cone {
				nd := g.nodes[cn]
				for _, f := range [2]Lit{nd.fanin0, nd.fanin1} {
					if g.IsPI(f.Node()) {
						sup[f.Node()] = true
					}
				}
			}
			c.Supports = len(sup)
		} else if g.IsPI(n) {
			c.Supports = 1
		}
		out[pi] = c
	}
	return out
}
