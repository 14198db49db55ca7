package sta

// Scratch holds the incremental passes' per-call worklist buffers — the
// corner-independent frontier seed and the dirty flags each corner
// reuses in turn — kept across calls so a retained evaluation pipeline
// performs no steady-state allocations in STA. A Scratch serves one
// update at a time.
type Scratch struct {
	seed  []bool
	dirty []bool
}

// growBools returns b resized to n elements, all false.
func growBools(b []bool, n int) []bool {
	if cap(b) < n {
		return make([]bool, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = false
	}
	return b
}

// growF64 returns b resized to n elements, all zero — the recycled
// equivalent of make([]float64, n), so recycled results are
// bit-identical to freshly allocated ones by construction.
func growF64(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// recycleSignoff returns a SignoffResult shell with storage reused from
// recycle (which must be dead: no other holder) sized for numNets nets
// and numCorners corners. A nil recycle allocates everything fresh; in
// both cases the per-net slices are zeroed like fresh allocations.
func recycleSignoff(recycle *SignoffResult, numNets, numCorners int) *SignoffResult {
	res := recycle
	if res == nil {
		res = &SignoffResult{}
	}
	prev := res.Corners[:cap(res.Corners)]
	corners := res.Corners[:0]
	if cap(corners) < numCorners {
		corners = make([]CornerResult, 0, numCorners)
	}
	// Reuse each previous corner slot's per-net slices; slots beyond the
	// previous corner count start fresh.
	for i := 0; i < numCorners; i++ {
		var cr CornerResult
		if i < len(prev) {
			cr.ArrivalPS = growF64(prev[i].ArrivalPS, numNets)
			cr.SlewPS = growF64(prev[i].SlewPS, numNets)
		} else {
			cr.ArrivalPS = make([]float64, numNets)
			cr.SlewPS = make([]float64, numNets)
		}
		cr.CriticalPO = -1
		corners = append(corners, cr)
	}
	loads := growF64(res.LoadsFF, numNets)
	*res = SignoffResult{Corners: corners, LoadsFF: loads}
	return res
}
