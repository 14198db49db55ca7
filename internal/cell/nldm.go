package cell

// NLDM-style timing tables. Real liberty files characterize each cell with
// two-dimensional lookup tables indexed by input slew and output load;
// signoff STA bilinearly interpolates them and propagates slew. This file
// provides the same mechanism with synthetically characterized tables
// derived from each cell's scalar parameters:
//
//	delay(slew, load) = intrinsic + drive·load + slewSens·slew
//	                    + curvature·slew·load
//	slewOut(slew, load) = slewIntrinsic + slewPerFF·load + 0.1·slew
//
// The curvature term makes the tables genuinely two-dimensional (not
// separable), so interpolation is exercised the way liberty tables are.

// TimingTable is a 2D lookup table over (input slew, output load).
type TimingTable struct {
	SlewAxis []float64   // ps, ascending
	LoadAxis []float64   // fF, ascending
	Values   [][]float64 // [slew][load]
}

// Lookup bilinearly interpolates the table, clamping to the axis ranges
// (the standard liberty extrapolation-free behavior).
func (t *TimingTable) Lookup(slewPS, loadFF float64) float64 {
	si, sf := locate(t.SlewAxis, slewPS)
	li, lf := locate(t.LoadAxis, loadFF)
	v00 := t.Values[si][li]
	v01 := t.Values[si][li+1]
	v10 := t.Values[si+1][li]
	v11 := t.Values[si+1][li+1]
	v0 := v00 + (v01-v00)*lf
	v1 := v10 + (v11-v10)*lf
	return v0 + (v1-v0)*sf
}

// locate returns the lower index and fractional position of x on the
// axis, clamped to [0, 1] within the outermost segments.
func locate(axis []float64, x float64) (int, float64) {
	n := len(axis)
	if x <= axis[0] {
		return 0, 0
	}
	if x >= axis[n-1] {
		return n - 2, 1
	}
	lo := 0
	for lo+2 < n && axis[lo+1] <= x {
		lo++
	}
	f := (x - axis[lo]) / (axis[lo+1] - axis[lo])
	return lo, f
}

// Timing bundles a cell's characterized tables.
type Timing struct {
	Delay   TimingTable
	SlewOut TimingTable
}

// defaultSlewAxis and defaultLoadAxis are the characterization grids.
var (
	defaultSlewAxis = []float64{5, 20, 50, 100, 200, 400}
	defaultLoadAxis = []float64{0.5, 2, 5, 10, 25, 60}
)

// slewSensitivity is the fraction of input slew added to delay.
const slewSensitivity = 0.18

// curvature couples slew and load in the delay surface (ps per ps·fF).
const curvature = 0.0004

// Characterize builds NLDM tables for the cell from its scalar
// parameters. Called by library finalization; custom cells may call it
// directly.
func (c *Cell) Characterize() {
	mk := func(f func(slew, load float64) float64) TimingTable {
		t := TimingTable{SlewAxis: defaultSlewAxis, LoadAxis: defaultLoadAxis}
		t.Values = make([][]float64, len(t.SlewAxis))
		for i, s := range t.SlewAxis {
			row := make([]float64, len(t.LoadAxis))
			for j, l := range t.LoadAxis {
				row[j] = f(s, l)
			}
			t.Values[i] = row
		}
		return t
	}
	c.NLDM = &Timing{
		Delay: mk(func(s, l float64) float64 {
			return c.IntrinsicPS + c.DrivePSPerFF*l + slewSensitivity*s + curvature*s*l*c.DrivePSPerFF
		}),
		SlewOut: mk(func(s, l float64) float64 {
			return 0.6*c.IntrinsicPS + 0.8*c.DrivePSPerFF*l + 0.1*s
		}),
	}
}

// Corner scales cell timing for a process/voltage/temperature corner.
type Corner struct {
	Name  string
	Scale float64 // multiplier on all delays and slews
}

// SignoffCorners are the three standard corners checked by the signoff
// STA; the slow corner bounds the reported maximum delay.
var SignoffCorners = []Corner{
	{Name: "FF", Scale: 0.85},
	{Name: "TT", Scale: 1.00},
	{Name: "SS", Scale: 1.18},
}
