package truth

// NPN manipulation of small (up to 4-variable) functions encoded as uint16
// truth tables. Technology mapping matches cut functions against library
// cell functions under input Negation, input Permutation, and output
// Negation; this file provides the pin transform and the padding both
// sides of a match are compared in.

// TransformPins rewires a k-variable function f (k ≤ 4): pin j of the
// original function is driven by variable pinVar[j] of the result,
// complemented when bit j of pinInv is set. The returned table g satisfies
//
//	g(x_0..x_{k-1}) = f(y_0..y_{k-1}),  y_j = x_{pinVar[j]} ^ pinInv_j.
func TransformPins(f uint16, k int, pinVar []int, pinInv uint16) uint16 {
	var g uint16
	n := 1 << k
	for m := 0; m < n; m++ {
		mc := 0
		for j := 0; j < k; j++ {
			b := m >> pinVar[j] & 1
			b ^= int(pinInv >> j & 1)
			mc |= b << j
		}
		if f>>mc&1 == 1 {
			g |= 1 << m
		}
	}
	// Replicate to fill 16 bits for k < 4 so comparisons of padded
	// tables work uniformly.
	for sh := n; sh < 16; sh <<= 1 {
		g |= g << sh
	}
	return g
}

// PadTo4 extends a k-variable function (k ≤ 4) to a full 16-bit table that
// ignores the unused high variables.
func PadTo4(f uint16, k int) uint16 {
	n := 1 << k
	mask := uint16(1)<<n - 1
	if n >= 16 {
		return f
	}
	g := f & mask
	for sh := n; sh < 16; sh <<= 1 {
		g |= g << sh
	}
	return g
}
