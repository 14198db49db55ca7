package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"

	"aigtimer/internal/aig"
	"aigtimer/internal/flows"
)

// The benchmark checks every optimized graph against its input design
// with its own simulator rather than aig.Simulator, so a defect in the
// program's simulation engine cannot also hide itself here. The
// simulator walks the graph through its public accessors only (PI, PO,
// Fanins) and evaluates blocks of simBlockWords 64-bit pattern words.

const (
	// exhaustiveMaxPIs is the largest PI count checked over every input
	// pattern (2^20 patterns = 16384 words); the suite designs have 14-18.
	exhaustiveMaxPIs = 20
	// randomWords is the number of seeded random pattern words used above
	// that: 262144 patterns. The workloads' designs never need it; the
	// tests run it on a 32-input multiplier.
	randomWords   = 4096
	simBlockWords = 64
)

// simulator evaluates an AIG over one block of pattern words. vals holds
// simBlockWords words per node, node-major; it is reused across blocks.
type simulator struct {
	g    *aig.AIG
	vals []uint64
}

func newSimulator(g *aig.AIG) *simulator {
	return &simulator{g: g, vals: make([]uint64, g.NumNodes()*simBlockWords)}
}

// node returns the word slice of node n.
func (s *simulator) node(n int32) []uint64 {
	return s.vals[int(n)*simBlockWords : int(n+1)*simBlockWords]
}

// lit writes the words of literal l into dst.
func (s *simulator) lit(dst []uint64, l aig.Lit) {
	src := s.node(l.Node())
	if l.IsCompl() {
		for i, w := range src {
			dst[i] = ^w
		}
		return
	}
	copy(dst, src)
}

// run evaluates the block whose PI words are pis[i] (simBlockWords each)
// and appends every PO's words to out, PO-major.
func (s *simulator) run(pis [][]uint64, out []uint64) []uint64 {
	g := s.g
	clear(s.node(0)) // constant false
	for i := 0; i < g.NumPIs(); i++ {
		copy(s.node(g.PI(i).Node()), pis[i])
	}
	for n := g.FirstAnd(); int(n) < g.NumNodes(); n++ {
		f0, f1 := g.Fanins(n)
		a, b := s.node(f0.Node()), s.node(f1.Node())
		var ma, mb uint64
		if f0.IsCompl() {
			ma = ^uint64(0)
		}
		if f1.IsCompl() {
			mb = ^uint64(0)
		}
		dst := s.node(n)
		for i := range dst {
			dst[i] = (a[i] ^ ma) & (b[i] ^ mb)
		}
	}
	var buf [simBlockWords]uint64
	for i := 0; i < g.NumPOs(); i++ {
		s.lit(buf[:], g.PO(i))
		out = append(out, buf[:]...)
	}
	return out
}

// patternBlocks returns the PI words of every block for an n-input
// design. Up to exhaustiveMaxPIs inputs every assignment appears (input
// i < 6 toggles inside a word with period 2^(i+1); input i >= 6 is
// constant per word and selected by bit i-6 of the word index; words
// past 2^(n-6) pad with the all-zero assignment). Above that the words
// are drawn from a seed fixed by n, so a check is reproducible.
func patternBlocks(n int) [][][]uint64 {
	var blocks [][][]uint64
	if n > exhaustiveMaxPIs {
		rng := rand.New(rand.NewSource(int64(n)))
		for b := 0; b < randomWords/simBlockWords; b++ {
			pis := make([][]uint64, n)
			for i := range pis {
				pis[i] = make([]uint64, simBlockWords)
				for w := range pis[i] {
					pis[i][w] = rng.Uint64()
				}
			}
			blocks = append(blocks, pis)
		}
		return blocks
	}
	inWord := [6]uint64{
		0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC, 0xF0F0F0F0F0F0F0F0,
		0xFF00FF00FF00FF00, 0xFFFF0000FFFF0000, 0xFFFFFFFF00000000,
	}
	totalWords := 1
	if n > 6 {
		totalWords = 1 << (n - 6)
	}
	for start := 0; start < totalWords; start += simBlockWords {
		pis := make([][]uint64, n)
		for i := range pis {
			pis[i] = make([]uint64, simBlockWords)
			for w := range pis[i] {
				word := start + w
				switch {
				case word >= totalWords:
				case i < 6:
					pis[i][w] = inWord[i]
				case word>>(i-6)&1 == 1:
					pis[i][w] = ^uint64(0)
				}
			}
		}
		blocks = append(blocks, pis)
	}
	return blocks
}

// reference is a design's simulated outputs, computed once and compared
// against every optimized variant of it.
type reference struct {
	g      *aig.AIG
	blocks [][][]uint64
	outs   [][]uint64 // per block, PO-major
}

func newReference(g *aig.AIG) *reference {
	r := &reference{g: g, blocks: patternBlocks(g.NumPIs())}
	s := newSimulator(g)
	for _, pis := range r.blocks {
		r.outs = append(r.outs, s.run(pis, nil))
	}
	return r
}

// equivalent reports whether h computes the reference design's function
// on every checked pattern, with an error naming the first difference.
func (r *reference) equivalent(h *aig.AIG) error {
	if h == nil {
		return fmt.Errorf("no graph")
	}
	if h.NumPIs() != r.g.NumPIs() || h.NumPOs() != r.g.NumPOs() {
		return fmt.Errorf("interface %d/%d PIs/POs, want %d/%d", h.NumPIs(), h.NumPOs(), r.g.NumPIs(), r.g.NumPOs())
	}
	s := newSimulator(h)
	var out []uint64
	for b, pis := range r.blocks {
		out = s.run(pis, out[:0])
		for i, w := range out {
			if w != r.outs[b][i] {
				return fmt.Errorf("PO %d differs in pattern block %d", i/simBlockWords, b)
			}
		}
	}
	return nil
}

// pointDigest is the first 8 bytes (hex) of the SHA-256 of the point's
// flows.AppendCanonical form: every deterministic field of the result,
// including the best graph and the accepted history.
func pointDigest(p flows.SweepPoint) string {
	sum := sha256.Sum256(p.AppendCanonical(nil))
	return hex.EncodeToString(sum[:8])
}

// trajectoryDigest is pointDigest with the run's Evals and
// SpeculativeEvals zeroed: those count speculative work, which depends
// on the tuned batch bounds, while every other field is fixed by the
// trajectory (the value contract anneal's batch invariance promises).
func trajectoryDigest(p flows.SweepPoint) string {
	if p.Result != nil {
		r := *p.Result
		r.Evals, r.SpeculativeEvals = 0, 0
		p.Result = &r
	}
	return pointDigest(p)
}
