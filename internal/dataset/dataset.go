// Package dataset implements the paper's data generation pipeline
// (§III-C): for each benchmark design, generate unique AIG variants by
// random walks over the transformation recipes, then label every variant
// with its ground-truth post-mapping maximum delay and area (technology
// mapping + STA). Labeling is parallelized across CPUs; variants are
// deduplicated by structural hash.
package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"strconv"
	"sync"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/features"
	"aigtimer/internal/signoff"
	"aigtimer/internal/transform"
)

// Sample is one labeled AIG variant.
type Sample struct {
	Design   string
	Features []float64
	DelayPS  float64
	AreaUM2  float64
	Ands     int
	Levels   int32
}

// GenParams configures variant generation.
type GenParams struct {
	N           int           // number of unique variants to produce
	Seed        int64         //
	RestartProb float64       // probability of restarting the walk from g0
	Workers     int           // labeling parallelism; 0 = GOMAXPROCS
	Lib         *cell.Library // labels come from signoff evaluation over this library
}

// DefaultGenParams generates n variants with sensible settings.
func DefaultGenParams(n int, seed int64) GenParams {
	return GenParams{
		N:           n,
		Seed:        seed,
		RestartProb: 0.15,
		Lib:         cell.Builtin(),
	}
}

// LabeledAIG pairs a generated variant with its ground-truth labels; it is
// the raw form of a Sample for consumers (like the GNN) that need the
// graph itself rather than extracted features.
type LabeledAIG struct {
	Design  string
	G       *aig.AIG
	DelayPS float64
	AreaUM2 float64
}

// GenerateGraphs runs the same walk-and-label pipeline as Generate but
// returns the labeled AIGs themselves.
func GenerateGraphs(name string, g0 *aig.AIG, p GenParams) ([]LabeledAIG, error) {
	samples, variants, err := generate(name, g0, p)
	if err != nil {
		return nil, err
	}
	out := make([]LabeledAIG, len(samples))
	for i := range samples {
		out[i] = LabeledAIG{Design: name, G: variants[i], DelayPS: samples[i].DelayPS, AreaUM2: samples[i].AreaUM2}
	}
	return out, nil
}

// Generate produces labeled samples for one design. The walk applies one
// random recipe per step to the current AIG (restarting at g0 with
// RestartProb), keeps structurally new variants, and labels each variant
// with mapping + STA. The initial AIG itself is the first sample.
func Generate(name string, g0 *aig.AIG, p GenParams) ([]Sample, error) {
	samples, _, err := generate(name, g0, p)
	return samples, err
}

func generate(name string, g0 *aig.AIG, p GenParams) ([]Sample, []*aig.AIG, error) {
	if p.N <= 0 {
		return nil, nil, fmt.Errorf("dataset: N must be positive")
	}
	if p.Lib == nil {
		p.Lib = cell.Builtin()
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	recipes := transform.Recipes()

	variants := make([]*aig.AIG, 0, p.N)
	seen := map[uint64]bool{}
	add := func(g *aig.AIG) bool {
		h := g.Hash()
		if seen[h] {
			return false
		}
		seen[h] = true
		variants = append(variants, g)
		return true
	}
	add(g0)
	cur := g0
	// The walk bounds total steps to avoid livelock when the recipe set
	// stops producing new structures.
	for steps := 0; len(variants) < p.N && steps < 40*p.N; steps++ {
		if rng.Float64() < p.RestartProb {
			cur = g0
		}
		r := recipes[rng.Intn(len(recipes))]
		cur = r.Apply(cur, rng)
		add(cur)
	}

	// Parallel labeling, every label from one pool.
	var pool signoff.Pool
	samples := make([]Sample, len(variants))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	var firstErr error
	var mu sync.Mutex
	for i := range variants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			g := variants[i]
			r, st, err := pool.Evaluate(g, p.Lib)
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = fmt.Errorf("dataset: labeling variant %d of %s: %w", i, name, err)
				}
				mu.Unlock()
				return
			}
			samples[i] = Sample{
				Design:   name,
				Features: features.Extract(g),
				DelayPS:  r.DelayPS,
				AreaUM2:  r.AreaUM2,
				Ands:     g.NumAnds(),
				Levels:   g.MaxLevel(),
			}
			st.Release()
		}(i)
	}
	wg.Wait()
	if firstErr != nil {
		return nil, nil, firstErr
	}
	return samples, variants, nil
}

// Matrix converts samples into a design matrix plus delay and area label
// vectors.
func Matrix(samples []Sample) (X [][]float64, delay, area []float64) {
	X = make([][]float64, len(samples))
	delay = make([]float64, len(samples))
	area = make([]float64, len(samples))
	for i, s := range samples {
		X[i] = s.Features
		delay[i] = s.DelayPS
		area[i] = s.AreaUM2
	}
	return X, delay, area
}

// FilterByDesign partitions samples by a design-name predicate.
func FilterByDesign(samples []Sample, keep func(string) bool) []Sample {
	var out []Sample
	for _, s := range samples {
		if keep(s.Design) {
			out = append(out, s)
		}
	}
	return out
}

// WriteCSV serializes samples with a header row.
func WriteCSV(w io.Writer, samples []Sample) error {
	cw := csv.NewWriter(w)
	header := append([]string{"design", "delay_ps", "area_um2", "ands", "levels"}, features.Names...)
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, s := range samples {
		rec := make([]string, 0, len(header))
		rec = append(rec, s.Design,
			strconv.FormatFloat(s.DelayPS, 'g', -1, 64),
			strconv.FormatFloat(s.AreaUM2, 'g', -1, 64),
			strconv.Itoa(s.Ands),
			strconv.Itoa(int(s.Levels)))
		for _, f := range s.Features {
			rec = append(rec, strconv.FormatFloat(f, 'g', -1, 64))
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses samples written by WriteCSV.
func ReadCSV(r io.Reader) ([]Sample, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, fmt.Errorf("dataset: empty CSV")
	}
	want := 5 + features.NumFeatures
	if len(rows[0]) != want {
		return nil, fmt.Errorf("dataset: header has %d columns, want %d", len(rows[0]), want)
	}
	out := make([]Sample, 0, len(rows)-1)
	for ri, row := range rows[1:] {
		var s Sample
		s.Design = row[0]
		vals := make([]float64, len(row)-1)
		for i, cell := range row[1:] {
			v, err := strconv.ParseFloat(cell, 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: row %d col %d: %w", ri+2, i+2, err)
			}
			vals[i] = v
		}
		s.DelayPS, s.AreaUM2 = vals[0], vals[1]
		s.Ands, s.Levels = int(vals[2]), int32(vals[3])
		s.Features = vals[4:]
		out = append(out, s)
	}
	return out, nil
}
