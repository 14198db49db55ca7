package transform

import (
	"fmt"
	"math/rand"
	"strings"

	"aigtimer/internal/aig"
)

// Recipe is a named sequence of basic transforms, the unit move of the
// paper's optimization flows: "an industry flow that we are familiar with
// uses 103 combinations of the basic transformations available in ABC,
// from which one combination is selected in each iteration and applied to
// the AIG."
type Recipe struct {
	Name  string
	Steps []string // catalog names
}

// Apply runs the recipe's steps in order. The intermediate graphs live
// in a pooled mover's storage; only the result is allocated.
func (r Recipe) Apply(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	m := moverPool.Get().(*mover)
	defer moverPool.Put(m)
	return m.apply(r, g, rng)
}

// ApplyTracked runs the recipe like Apply and rebases the result
// against g (aig.Builder.Rebase): its AND nodes split into a prefix
// shared with g, in g's order, and a suffix — the cone the recipe
// actually touched plus its transitive fanout. The annealer applies
// every ground-truth move this way. Rebasing stays although nothing
// evaluates a delta any more, because the rebased node order is an
// input to every later move and to the mapper's cut order: every
// recorded ground-truth trajectory, and the EX08 fixed point, was
// produced with rebased candidates, and Apply's order scores
// differently. The rebased graph is all it allocates.
func (r Recipe) ApplyTracked(g *aig.AIG, rng *rand.Rand) *aig.AIG {
	m := moverPool.Get().(*mover)
	defer moverPool.Put(m)
	return m.applyTracked(r, g, rng)
}

// String renders the recipe as "name: step; step; ...".
func (r Recipe) String() string {
	return r.Name + ": " + strings.Join(r.Steps, "; ")
}

// NumRecipes is the size of the recipe catalog, matching the paper's 103
// industry combinations.
const NumRecipes = 103

// Recipes returns the catalog of 103 transformation combinations. The
// first entries are the classic hand-written scripts (the analogues of
// ABC's compress/compress2/resyn families); the remainder are generated
// deterministically by recombining the basic transforms, mirroring how the
// industry flow multiplies a small basis into a large move set.
func Recipes() []Recipe {
	base := []Recipe{
		{"balance", []string{"b"}},
		{"rewrite", []string{"rw"}},
		{"rewrite-z", []string{"rwz"}},
		{"refactor", []string{"rf"}},
		{"refactor-z", []string{"rfz"}},
		{"resub", []string{"rs"}},
		{"fraig", []string{"fr"}},
		{"expand", []string{"ex"}},
		{"shake", []string{"br"}},
		{"compress", []string{"b", "rw", "rwz", "b", "rwz", "b"}},
		{"compress2rs", []string{"b", "rs", "rw", "rs", "rf", "rs", "b", "rs", "rwz", "b"}},
		{"compress2", []string{"b", "rw", "rf", "b", "rw", "rwz", "b", "rfz", "rwz", "b"}},
		{"resyn", []string{"b", "rw", "rwz", "b", "rwz", "b"}},
		{"resyn2", []string{"b", "rw", "rf", "b", "rw", "rwz", "b", "rfz", "rwz", "b"}},
		{"resyn2a", []string{"b", "rw", "b", "rw", "rwz", "b", "rwz", "b"}},
		{"resyn3", []string{"b", "rf", "rfz", "b", "rfz", "b"}},
		{"drill", []string{"fr", "b", "rw", "rf", "b"}},
		{"churn", []string{"ex", "b", "rw", "b"}},
		{"churn2", []string{"br", "rwz", "b", "rfz", "b"}},
		{"deep", []string{"ex", "rf", "b", "rw", "rwz", "b"}},
	}
	atoms := []string{"b", "br", "rw", "rwz", "rf", "rfz", "rs", "rsz", "ex", "fr"}
	rng := rand.New(rand.NewSource(20250101)) // fixed: catalog is stable
	out := append([]Recipe(nil), base...)
	for i := len(base); i < NumRecipes; i++ {
		n := 3 + rng.Intn(6)
		steps := make([]string, n)
		for j := range steps {
			steps[j] = atoms[rng.Intn(len(atoms))]
		}
		// Always end on a compaction-style step so generated recipes do
		// not systematically bloat.
		if steps[n-1] == "ex" || steps[n-1] == "br" {
			steps[n-1] = "b"
		}
		out = append(out, Recipe{Name: fmt.Sprintf("mix%02d", i-len(base)), Steps: steps})
	}
	return out
}
