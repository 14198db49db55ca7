package transform

import (
	"sync"
	"sync/atomic"

	"aigtimer/internal/aig"
	"aigtimer/internal/truth"
)

// Synthesis-program caching. The AND calls truth.Synth.Synthesize
// issues are a pure function of the truth table: the ISOP covers, the
// cost comparison (measured in standalone builders), and the factoring
// tree depend on nothing but the table. The same holds for flatSOP's
// two-level form. Re-deriving them for every accepted node of every
// move would repeat the ISOP and factoring work each time. A synthProg
// captures the sequence once as the dedup'd AND list of a standalone
// synthesis and replays it through the target builder's structural
// hashing, which produces bit-identical results: replay performs
// exactly the create-or-find operations the direct call sequence
// would, in the same order.

// synthProg is one replayable synthesis: the AND nodes a synthesis
// function creates for the function over fresh inputs, in creation
// order, with fanins referring to the standalone graph (node 0 the
// constant, nodes 1..k the inputs, k+1.. the ops), plus the output
// literal.
type synthProg struct {
	k   int
	ops [][2]aig.Lit
	out aig.Lit
}

// synthFunc emits an implementation of t over inputs into b, working in
// s. Recorded functions must issue the same AND calls for the same
// table on every call, whatever the builder holds: factored and
// flatSOP do.
type synthFunc func(s *truth.Synth, b *aig.Builder, inputs []aig.Lit, t truth.TT) aig.Lit

// factored is the factored resynthesis rewriting and refactoring apply.
var factored synthFunc = (*truth.Synth).Synthesize

// recorder is a mover's synthesis-recording scratch: the Synth a
// recording works in and the standalone builder it runs against.
type recorder struct {
	synth truth.Synth
	b     aig.Builder
	ins   []aig.Lit
}

// record records synth's emission for tt by running it against the
// standalone builder and reading back the dedup'd AND list. Once r is
// warm, the program is all it allocates.
func (r *recorder) record(tt truth.TT, synth synthFunc) *synthProg {
	r.b.Reset(tt.N, 0)
	r.ins = grow(r.ins, tt.N)
	for i := range r.ins {
		r.ins[i] = r.b.PI(i)
	}
	out := synth(&r.synth, &r.b, r.ins, tt)
	g := r.b.Graph()
	p := &synthProg{k: tt.N, out: out}
	if n := g.NumAnds(); n > 0 {
		p.ops = make([][2]aig.Lit, 0, n)
		for x := g.FirstAnd(); x < int32(g.NumNodes()); x++ {
			f0, f1 := g.Fanins(x)
			p.ops = append(p.ops, [2]aig.Lit{f0, f1})
		}
	}
	return p
}

// cost returns the standalone AND count of the synthesis — what a
// scratch-builder run of the recorded function would report as NumAnds.
func (p *synthProg) cost() int { return len(p.ops) }

// replay emits the program into b over the given inputs and returns the
// output literal, bit-identical to calling the recorded function on b.
func (p *synthProg) replay(b *aig.Builder, ins []aig.Lit) aig.Lit {
	var buf [192]aig.Lit
	m := buf[:]
	if need := 1 + p.k + len(p.ops); need > len(m) {
		m = make([]aig.Lit, need)
	}
	m[0] = aig.ConstFalse
	copy(m[1:], ins)
	tr := func(f aig.Lit) aig.Lit { return m[f.Node()].NotIf(f.IsCompl()) }
	base := 1 + p.k
	for i, op := range p.ops {
		m[base+i] = b.And(tr(op[0]), tr(op[1]))
	}
	return tr(p.out)
}

// progTab caches programs for cut functions (k ≤ 4, 16-bit padded
// tables), indexed flat by (k, table): rewriting probes it for every cut
// of every node of a move. Racing fills record identical programs, so a
// plain atomic pointer suffices.
type progTab [5 << 16]atomic.Pointer[synthProg]

// get returns the program synth records for a ≤4-leaf cut function,
// recording it in rec on a miss. One table must always be used with the
// same synth.
func (t *progTab) get(table uint16, k int, rec *recorder, synth synthFunc) *synthProg {
	slot := &t[k<<16|int(table)]
	p := slot.Load()
	if p == nil {
		p = rec.record(truth.FromUint16K(table, k), synth)
		slot.Store(p)
	}
	return p
}

// synthProgTab holds the factored programs, the resynthesis rewriting
// applies; flatProgTab holds flatSOP's, the two-level form expansion
// applies.
var synthProgTab, flatProgTab progTab

// cutProg returns the factored synthesis program of a ≤4-leaf cut
// function.
func (m *mover) cutProg(table uint16, k int) *synthProg {
	return synthProgTab.get(table, k, &m.rec, factored)
}

// flatProg returns the flat two-level program of a ≤4-leaf cut function.
func (m *mover) flatProg(table uint16, k int) *synthProg {
	return flatProgTab.get(table, k, &m.rec, flatSOP)
}

// coneProgCap bounds coneProgs. The cache lives for the whole process,
// so in a resident sweep worker it would otherwise grow for as long as
// the worker runs. A program is a pure function of its key, so dropping
// the cache costs only refills.
const coneProgCap = 1 << 16

// coneProgs caches programs for reconvergence-driven cone functions
// (k ≤ 8, tables up to 4 words), keyed by the padded words and width.
// When it reaches coneProgCap entries it is emptied.
var coneProgs struct {
	sync.Mutex
	m map[[5]uint64]*synthProg
}

// coneProg returns the factored synthesis program of a cone function.
func (m *mover) coneProg(tt truth.TT) *synthProg {
	var key [5]uint64
	copy(key[:4], tt.W)
	key[4] = uint64(tt.N)
	coneProgs.Lock()
	p, ok := coneProgs.m[key]
	coneProgs.Unlock()
	if ok {
		return p
	}
	p = m.rec.record(tt, factored)
	storeConeProg(key, p)
	return p
}

// storeConeProg adds p to coneProgs, emptying the cache first when it is
// full.
func storeConeProg(key [5]uint64, p *synthProg) {
	coneProgs.Lock()
	defer coneProgs.Unlock()
	if coneProgs.m == nil || len(coneProgs.m) >= coneProgCap {
		coneProgs.m = make(map[[5]uint64]*synthProg)
	}
	coneProgs.m[key] = p
}
