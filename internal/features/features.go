// Package features extracts the paper's Table II graph-level features from
// an AIG. The features target the two sources of proxy/post-mapping
// miscorrelation the paper identifies: path-depth change under cell
// merging, and fanout-driven load changes. Three families are produced:
// critical-path depth features (plain, fanout-weighted, binary
// merge-probability weighted), fanout distribution features (global and
// restricted to the longest paths), and per-output structural complexity
// (path counts).
//
// Extract is the ML flow's per-candidate cost ahead of inference, so it
// computes only what the vector holds: one pass over the nodes in index
// order carries the weighted depths and the PI-to-node path counts
// together, and no per-output cone is built.
package features

import (
	"math"
	"sort"

	"aigtimer/internal/aig"
)

// TopN is the paper's n for the top-n depth and path-count features.
const TopN = 3

// Names lists the features in vector order. The layout follows Table II.
var Names = []string{
	"number_of_node",
	"aig_level",
	"aig_1st_long_path_depth",
	"aig_2nd_long_path_depth",
	"aig_3rd_long_path_depth",
	"aig_1st_weighted_path_depth",
	"aig_2nd_weighted_path_depth",
	"aig_3rd_weighted_path_depth",
	"aig_1st_binary_weighted_path_depth",
	"aig_2nd_binary_weighted_path_depth",
	"aig_3rd_binary_weighted_path_depth",
	"fanout_mean",
	"fanout_max",
	"fanout_std",
	"fanout_sum",
	"long_path_fanout_mean",
	"long_path_fanout_max",
	"long_path_fanout_std",
	"long_path_fanout_sum",
	"num_paths_1st",
	"num_paths_2nd",
	"num_paths_3rd",
}

// NumFeatures is the dimensionality of the feature vector.
var NumFeatures = len(Names)

// Vector is one extracted feature vector, ordered as Names.
type Vector []float64

// Extract computes the Table II features of g.
//
// Depth conventions: a PO's depth is the number of AND stages between it
// and the PIs (the driver's logic level). Weighted depths sum per-node
// weights along the deepest weighted path, where the weight is the node's
// fanout count (aig_nth_weighted_path_depth) or the indicator
// fanout ≥ 2 (aig_nth_binary_weighted_path_depth — nodes with a single
// fanout are the ones likely to be absorbed into larger cells during
// mapping, so they contribute no depth). Path counts are reported as
// log1p(count): path counts grow exponentially with design depth and the
// monotone transform keeps magnitudes finite without affecting
// decision-tree splits.
func Extract(g *aig.AIG) Vector {
	v := make(Vector, NumFeatures)
	fo := g.FanoutCounts()
	lv := g.Levels()

	v[0] = float64(g.NumAnds())
	v[1] = float64(g.MaxLevel())

	// Per-PO plain depths.
	depths := make([]float64, 0, g.NumPOs())
	for _, po := range g.POs() {
		depths = append(depths, float64(lv[po.Node()]))
	}
	fillTopN(v[2:5], depths)

	// One DP pass over the DAG in index order: fanout-weighted and
	// binary-weighted depths, and PI-to-node path counts (1 at the PIs,
	// the sum of the fanins' counts at an AND; float64 tolerates the
	// exponential growth of multiplier-like cones).
	wd := make([]float64, g.NumNodes())    // fanout-weighted
	bwd := make([]float64, g.NumNodes())   // binary-weighted
	paths := make([]float64, g.NumNodes()) // PI-to-node paths
	weight := func(n int32) (float64, float64) {
		w := float64(fo[n])
		b := 0.0
		if fo[n] >= 2 {
			b = 1.0
		}
		return w, b
	}
	for i := int32(1); i <= int32(g.NumPIs()); i++ {
		wd[i], bwd[i] = weight(i)
		paths[i] = 1
	}
	g.TopoForEachAnd(func(n int32, f0, f1 aig.Lit) {
		w, b := weight(n)
		wd[n] = w + math.Max(wd[f0.Node()], wd[f1.Node()])
		bwd[n] = b + math.Max(bwd[f0.Node()], bwd[f1.Node()])
		paths[n] = paths[f0.Node()] + paths[f1.Node()]
	})
	wdepths := make([]float64, 0, g.NumPOs())
	bdepths := make([]float64, 0, g.NumPOs())
	npaths := make([]float64, 0, g.NumPOs())
	for _, po := range g.POs() {
		wdepths = append(wdepths, wd[po.Node()])
		bdepths = append(bdepths, bwd[po.Node()])
		npaths = append(npaths, math.Log1p(paths[po.Node()]))
	}
	fillTopN(v[5:8], wdepths)
	fillTopN(v[8:11], bdepths)

	// Global fanout distribution over AND nodes and PIs.
	fos := make([]float64, 0, g.NumNodes()-1)
	for i := 1; i < g.NumNodes(); i++ {
		fos = append(fos, float64(fo[i]))
	}
	mean, max, std, sum := distStats(fos)
	v[11], v[12], v[13], v[14] = mean, max, std, sum

	// Fanout distribution restricted to nodes on maximum-depth paths
	// (level + height == max level).
	height := heights(g)
	maxLv := g.MaxLevel()
	var lp []float64
	for i := g.FirstAnd(); i < int32(g.NumNodes()); i++ {
		if lv[i]+height[i] == maxLv {
			lp = append(lp, float64(fo[i]))
		}
	}
	mean, max, std, sum = distStats(lp)
	v[15], v[16], v[17], v[18] = mean, max, std, sum

	// Per-PO path counts, top-n, log-compressed.
	fillTopN(v[19:22], npaths)

	return v
}

// heights returns, per node, the maximum number of AND stages from the
// node downward to the deepest node observing it. On compacted AIGs
// (no dangling nodes) level+height == max level identifies nodes lying on
// some maximum-depth path.
func heights(g *aig.AIG) []int32 {
	h := make([]int32, g.NumNodes())
	for n := int32(g.NumNodes() - 1); n >= g.FirstAnd(); n-- {
		f0, f1 := g.Fanins(n)
		for _, f := range [2]aig.Lit{f0, f1} {
			fn := f.Node()
			if h[n]+1 > h[fn] {
				h[fn] = h[n] + 1
			}
		}
	}
	return h
}

// fillTopN writes the n largest values of vals (descending) into dst,
// repeating the smallest available value when vals is shorter than dst.
func fillTopN(dst []float64, vals []float64) {
	if len(vals) == 0 {
		for i := range dst {
			dst[i] = 0
		}
		return
	}
	s := append([]float64(nil), vals...)
	sort.Sort(sort.Reverse(sort.Float64Slice(s)))
	for i := range dst {
		if i < len(s) {
			dst[i] = s[i]
		} else {
			dst[i] = s[len(s)-1]
		}
	}
}

// distStats returns mean, max, standard deviation and sum of vals
// (zeros for an empty slice).
func distStats(vals []float64) (mean, max, std, sum float64) {
	if len(vals) == 0 {
		return 0, 0, 0, 0
	}
	for _, x := range vals {
		sum += x
		if x > max {
			max = x
		}
	}
	mean = sum / float64(len(vals))
	for _, x := range vals {
		std += (x - mean) * (x - mean)
	}
	std = math.Sqrt(std / float64(len(vals)))
	return mean, max, std, sum
}
