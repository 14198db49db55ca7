package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPearsonPerfectCorrelation(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if r := Pearson(x, y); math.Abs(r-1) > 1e-12 {
		t.Fatalf("r = %v, want 1", r)
	}
	yn := []float64{-2, -4, -6, -8, -10}
	if r := Pearson(x, yn); math.Abs(r+1) > 1e-12 {
		t.Fatalf("r = %v, want -1", r)
	}
}

func TestPearsonEdgeCases(t *testing.T) {
	if r := Pearson([]float64{1}, []float64{2}); r != 0 {
		t.Errorf("single point r = %v", r)
	}
	if r := Pearson([]float64{3, 3, 3}, []float64{1, 2, 3}); r != 0 {
		t.Errorf("zero variance r = %v", r)
	}
	mustPanic(t, func() { Pearson([]float64{1}, []float64{1, 2}) })
}

func TestPearsonBounds(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(50)
		x := make([]float64, n)
		y := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		r := Pearson(x, y)
		return r >= -1-1e-9 && r <= 1+1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAbsPctErrorsAndSummary(t *testing.T) {
	truth := []float64{100, 200, 0, 50}
	pred := []float64{110, 180, 5, 50}
	errs := AbsPctErrors(truth, pred)
	if len(errs) != 3 { // zero-truth point skipped
		t.Fatalf("len = %d", len(errs))
	}
	want := []float64{10, 10, 0}
	for i := range want {
		if math.Abs(errs[i]-want[i]) > 1e-12 {
			t.Errorf("errs[%d] = %v, want %v", i, errs[i], want[i])
		}
	}
	s := Summarize(errs)
	if math.Abs(s.MeanPct-20.0/3) > 1e-9 || s.MaxPct != 10 || s.N != 3 {
		t.Errorf("summary = %+v", s)
	}
	if z := Summarize(nil); z.N != 0 || z.MeanPct != 0 {
		t.Errorf("empty summary = %+v", z)
	}
}

func TestRMSE(t *testing.T) {
	if got := RMSE([]float64{1, 2}, []float64{1, 2}); got != 0 {
		t.Errorf("RMSE identical = %v", got)
	}
	if got := RMSE([]float64{0, 0}, []float64{3, 4}); math.Abs(got-math.Sqrt(12.5)) > 1e-12 {
		t.Errorf("RMSE = %v", got)
	}
	if got := RMSE(nil, nil); got != 0 {
		t.Errorf("RMSE empty = %v", got)
	}
}

func TestParetoFront(t *testing.T) {
	pts := []Point{
		{X: 1, Y: 10, Tag: 0},
		{X: 2, Y: 5, Tag: 1},
		{X: 3, Y: 7, Tag: 2}, // dominated by (2,5)
		{X: 4, Y: 4, Tag: 3},
		{X: 4, Y: 9, Tag: 4}, // dominated
		{X: 0.5, Y: 20, Tag: 5},
	}
	front := ParetoFront(pts)
	wantTags := []int{5, 0, 1, 3}
	if len(front) != len(wantTags) {
		t.Fatalf("front = %+v", front)
	}
	for i, p := range front {
		if p.Tag != wantTags[i] {
			t.Fatalf("front[%d].Tag = %d, want %d", i, p.Tag, wantTags[i])
		}
	}
	// X ascending and Y strictly descending along a front.
	for i := 1; i < len(front); i++ {
		if front[i].X < front[i-1].X || front[i].Y >= front[i-1].Y {
			t.Fatalf("front not monotone: %+v", front)
		}
	}
}

func TestParetoFrontProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = Point{X: rng.Float64() * 100, Y: rng.Float64() * 100, Tag: i}
		}
		front := ParetoFront(pts)
		// No front point is dominated by any original point.
		for _, f := range front {
			for _, p := range pts {
				if p.X <= f.X && p.Y <= f.Y && (p.X < f.X || p.Y < f.Y) {
					return false
				}
			}
		}
		// Every non-front point is dominated by some front point.
		inFront := map[int]bool{}
		for _, f := range front {
			inFront[f.Tag] = true
		}
		for _, p := range pts {
			if inFront[p.Tag] {
				continue
			}
			dominated := false
			for _, f := range front {
				if f.X <= p.X && f.Y <= p.Y {
					dominated = true
					break
				}
			}
			if !dominated {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFrontDelayAtArea(t *testing.T) {
	front := []Point{{X: 1, Y: 10}, {X: 2, Y: 5}, {X: 4, Y: 2}}
	if got := FrontDelayAtArea(front, 3); got != 5 {
		t.Errorf("at 3: %v, want 5", got)
	}
	if got := FrontDelayAtArea(front, 0.5); !math.IsInf(got, 1) {
		t.Errorf("at 0.5: %v, want +Inf", got)
	}
	if got := FrontDelayAtArea(front, 100); got != 2 {
		t.Errorf("at 100: %v, want 2", got)
	}
}

func TestMinMax(t *testing.T) {
	min, max := MinMax([]float64{5, -2, 7})
	if min != -2 || max != 7 {
		t.Errorf("minmax = %v %v", min, max)
	}
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
