// Package stats provides the small statistical toolkit the experiments
// need: Pearson correlation (Fig. 1), absolute-percentage-error summaries
// (Table III), and Pareto-front extraction (Fig. 5).
package stats

import (
	"math"
	"sort"
)

// Pearson returns the Pearson correlation coefficient of two equal-length
// samples. It returns 0 when either sample has zero variance or fewer
// than two points.
func Pearson(x, y []float64) float64 {
	if len(x) != len(y) {
		panic("stats: Pearson: length mismatch")
	}
	n := float64(len(x))
	if len(x) < 2 {
		return 0
	}
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// ErrorSummary summarizes absolute percentage errors the way Table III
// reports model accuracy.
type ErrorSummary struct {
	MeanPct float64
	MaxPct  float64
	StdPct  float64
	N       int
}

// AbsPctErrors computes |pred-truth|/|truth| * 100 pointwise. Points with
// zero truth are skipped.
func AbsPctErrors(truth, pred []float64) []float64 {
	if len(truth) != len(pred) {
		panic("stats: AbsPctErrors: length mismatch")
	}
	out := make([]float64, 0, len(truth))
	for i := range truth {
		if truth[i] == 0 {
			continue
		}
		out = append(out, math.Abs(pred[i]-truth[i])/math.Abs(truth[i])*100)
	}
	return out
}

// Summarize reduces a set of percentage errors to Table III's mean/max/std.
func Summarize(errsPct []float64) ErrorSummary {
	s := ErrorSummary{N: len(errsPct)}
	if len(errsPct) == 0 {
		return s
	}
	var sum float64
	for _, e := range errsPct {
		sum += e
		if e > s.MaxPct {
			s.MaxPct = e
		}
	}
	s.MeanPct = sum / float64(len(errsPct))
	var v float64
	for _, e := range errsPct {
		v += (e - s.MeanPct) * (e - s.MeanPct)
	}
	s.StdPct = math.Sqrt(v / float64(len(errsPct)))
	return s
}

// RMSE returns the root mean squared error.
func RMSE(truth, pred []float64) float64 {
	if len(truth) != len(pred) {
		panic("stats: RMSE: length mismatch")
	}
	if len(truth) == 0 {
		return 0
	}
	var s float64
	for i := range truth {
		d := pred[i] - truth[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(truth)))
}

// Point is a 2-D point for Pareto analysis: X is typically area, Y delay.
type Point struct {
	X, Y float64
	Tag  int // caller-defined identity (e.g. run index)
}

// ParetoFront returns the non-dominated subset of points under
// minimization of both coordinates, sorted by X ascending. A point p
// dominates q when p.X <= q.X and p.Y <= q.Y with at least one strict.
func ParetoFront(pts []Point) []Point {
	if len(pts) == 0 {
		return nil
	}
	s := append([]Point(nil), pts...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].X != s[j].X {
			return s[i].X < s[j].X
		}
		return s[i].Y < s[j].Y
	})
	var front []Point
	bestY := math.Inf(1)
	for _, p := range s {
		if p.Y < bestY {
			front = append(front, p)
			bestY = p.Y
		}
	}
	return front
}

// FrontDelayAtArea interpolates the Pareto front: the smallest Y (delay)
// achievable at X (area) budget at most xMax. Returns +Inf when the front
// has no point with X <= xMax.
func FrontDelayAtArea(front []Point, xMax float64) float64 {
	best := math.Inf(1)
	for _, p := range front {
		if p.X <= xMax && p.Y < best {
			best = p.Y
		}
	}
	return best
}

// MinMax returns the extrema of the sample (zeros for empty input).
func MinMax(xs []float64) (min, max float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max
}
