package aig

// Simulator is a reusable bit-parallel simulation engine for one AIG.
//
// Compared to the one-shot SimulateSequential reference path it:
//
//   - owns pre-sized value buffers that are reused across calls, so repeated
//     simulation (fraiging, resubstitution, annealed recipe search,
//     signatures) does not churn the allocator;
//   - dispatches every AND node through one of four specialized word-loop
//     kernels, hoisting the fanin-complement branches out of the inner loop.
//
// One call is one sequential pass in topological order on the calling
// goroutine: callers that simulate many graphs (annealer moves, sweep
// points) already run one per core, so a call spawns no goroutines.
//
// A Simulator may be reused for any number of Simulate calls of varying
// pattern width. It must not be used from multiple goroutines at once;
// create one Simulator per goroutine instead (the underlying AIG is
// read-only and can be shared, and NewSimulator itself does not touch the
// AIG's lazily cached state).
type Simulator struct {
	g *AIG

	words int
	buf   []uint64   // backing storage for all node value rows
	vals  [][]uint64 // per-node views into buf

	// res is the result shell Simulate returns a pointer to; retained
	// so the steady-state loop allocates nothing. Results already alias
	// the simulator's buffers and are only valid until the next call, so
	// sharing the shell adds no new aliasing.
	res SimResult
}

// NewSimulator returns an engine for g with nothing allocated yet: the
// first Simulate call sizes the buffers.
func NewSimulator(g *AIG) *Simulator {
	return &Simulator{g: g}
}

// AIG returns the graph this simulator was built for.
func (s *Simulator) AIG() *AIG { return s.g }

// Rebind switches the simulator to a different AIG, retaining the
// backing value storage so pooled simulators serve a stream of
// distinct graphs (one per annealer move) without re-allocating their
// buffers. All prior results become invalid; the next Simulate call
// re-sizes the per-node views. It returns s for chaining.
func (s *Simulator) Rebind(g *AIG) *Simulator {
	s.g = g
	n := len(g.nodes)
	if cap(s.vals) >= n {
		s.vals = s.vals[:n]
	} else {
		s.vals = nil
	}
	s.words = -1 // force the next ensure to re-slice the rows
	return s
}

// ensure sizes the value buffers for the given pattern width, reusing the
// backing array whenever it is large enough.
func (s *Simulator) ensure(words int) {
	if s.vals != nil && s.words == words {
		return
	}
	n := len(s.g.nodes)
	if cap(s.buf) < n*words {
		s.buf = make([]uint64, n*words)
	}
	buf := s.buf[:n*words]
	if s.vals == nil {
		s.vals = make([][]uint64, n)
	}
	for i := range s.vals {
		s.vals[i] = buf[:words:words]
		buf = buf[words:]
	}
	s.words = words
}

// Simulate evaluates the AIG under the given PI patterns; piValues must
// have NumPIs rows of equal word width. The returned result aliases the
// simulator's internal buffers and stays valid until the next Simulate
// call on this simulator.
func (s *Simulator) Simulate(piValues [][]uint64) *SimResult {
	if len(piValues) != s.g.numPIs {
		panic("aig: Simulate: wrong number of PI patterns")
	}
	words := 0
	if len(piValues) > 0 {
		words = len(piValues[0])
	}
	return s.SimulateWords(piValues, words)
}

// SimulateWords is Simulate with an explicit pattern width. It exists for
// AIGs without primary inputs, whose width cannot be inferred from the
// (empty) pattern rows, and for callers that want constant-width buffers
// regardless of PI count.
func (s *Simulator) SimulateWords(piValues [][]uint64, words int) *SimResult {
	if len(piValues) != s.g.numPIs {
		panic("aig: Simulate: wrong number of PI patterns")
	}
	s.ensure(words)
	clear(s.vals[0]) // constant false
	for i, row := range piValues {
		if len(row) != words {
			panic("aig: Simulate: ragged PI patterns")
		}
		copy(s.vals[i+1], row)
	}
	for n := s.g.numPIs + 1; n < len(s.g.nodes); n++ {
		nd := &s.g.nodes[n]
		simKernel(nd.fanin0.IsCompl(), nd.fanin1.IsCompl(),
			s.vals[n], s.vals[nd.fanin0.Node()], s.vals[nd.fanin1.Node()])
	}
	s.res = SimResult{Words: words, Values: s.vals}
	return &s.res
}

// simKernel dispatches to one of four specialized word loops, one per fanin
// complement case, keeping the hot loops branch-free.
func simKernel(c0, c1 bool, out, a, b []uint64) {
	switch {
	case !c0 && !c1:
		andKernel(out, a, b)
	case c0 && !c1:
		andc0Kernel(out, a, b)
	case !c0:
		andc1Kernel(out, a, b)
	default:
		norKernel(out, a, b)
	}
}

func andKernel(out, a, b []uint64) {
	a = a[:len(out)]
	b = b[:len(out)]
	for i := range out {
		out[i] = a[i] & b[i]
	}
}

func andc0Kernel(out, a, b []uint64) {
	a = a[:len(out)]
	b = b[:len(out)]
	for i := range out {
		out[i] = b[i] &^ a[i]
	}
}

func andc1Kernel(out, a, b []uint64) {
	a = a[:len(out)]
	b = b[:len(out)]
	for i := range out {
		out[i] = a[i] &^ b[i]
	}
}

func norKernel(out, a, b []uint64) {
	a = a[:len(out)]
	b = b[:len(out)]
	for i := range out {
		out[i] = ^(a[i] | b[i])
	}
}
