// Timing predictor: the paper's core idea in one file. Generate labeled
// AIG variants of a design, extract the Table II features, train an
// XGBoost-style delay model, and compare its predictions against real
// mapping + signoff STA on variants it has never seen.
//
//	go run ./examples/timingpredictor
package main

import (
	"fmt"
	"log"
	"time"

	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/dataset"
	"aigtimer/internal/features"
	"aigtimer/internal/gbdt"
	"aigtimer/internal/signoff"
	"aigtimer/internal/stats"
)

func main() {
	design, err := bench.ByName("EX00")
	if err != nil {
		log.Fatal(err)
	}
	g := design.Build()
	fmt.Printf("design %s: %v\n", design.Name, g.Stats())

	// Generate labeled variants: random transformation walks, each
	// labeled by technology mapping + multi-corner STA.
	t0 := time.Now()
	samples, err := dataset.Generate(design.Name, g, dataset.DefaultGenParams(120, 7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("generated %d labeled variants in %v\n", len(samples), time.Since(t0).Round(time.Millisecond))

	// Train on the first 80%, hold out the rest.
	cut := len(samples) * 4 / 5
	X, delay, _ := dataset.Matrix(samples[:cut])
	model, err := gbdt.Train(X, delay, gbdt.DefaultParams)
	if err != nil {
		log.Fatal(err)
	}

	// Evaluate on held-out variants.
	hX, hDelay, _ := dataset.Matrix(samples[cut:])
	pred := model.PredictAll(hX)
	sum := stats.Summarize(stats.AbsPctErrors(hDelay, pred))
	fmt.Printf("held-out accuracy: mean %.2f%%  max %.2f%%  std %.2f%% over %d variants\n",
		sum.MeanPct, sum.MaxPct, sum.StdPct, sum.N)

	// Show the speed contrast on a single fresh variant: inference vs
	// the ground-truth pipeline it replaces.
	v := samples[len(samples)-1]
	t0 = time.Now()
	x := features.Extract(g)
	p := model.Predict(x)
	mlTime := time.Since(t0)

	t0 = time.Now()
	var pool signoff.Pool
	gt, st, err := pool.Evaluate(g, cell.Builtin())
	if err != nil {
		log.Fatal(err)
	}
	gtTime := time.Since(t0)
	st.Release()
	fmt.Printf("\none evaluation of the original design:\n")
	fmt.Printf("  ML (features + inference): %8v -> %.1f ps\n", mlTime, p)
	fmt.Printf("  ground truth (map + STA):  %8v -> %.1f ps\n", gtTime, gt.DelayPS)
	fmt.Printf("  eval-time reduction: %.1f%%\n", 100*(1-float64(mlTime)/float64(gtTime)))
	_ = v

	// Which features does the model rely on?
	fmt.Println("\ntop features by split gain:")
	imp := model.FeatureImportance()
	for k := 0; k < 5; k++ {
		best := -1
		for i := range imp {
			if best < 0 || imp[i] > imp[best] {
				best = i
			}
		}
		fmt.Printf("  %-36s %5.1f%%\n", features.Names[best], imp[best]*100)
		imp[best] = -1
	}
}
