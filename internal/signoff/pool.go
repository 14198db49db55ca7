package signoff

import (
	"sync"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
	"aigtimer/internal/cut"
	"aigtimer/internal/techmap"
)

// evalScratch bundles the per-call working buffers of one evaluation —
// cut enumeration and mapping scratch — so one freelist cycle covers
// the whole pipeline. Both efforts use it in turn.
type evalScratch struct {
	cuts cut.Scratch
	tm   techmap.Scratch
}

// Pool recycles EvalState carcasses and evaluation scratch buffers. An
// evaluation drawn from a pool reuses the arenas, mapping state,
// netlists, and STA result storage of previously Released states, so a
// retained evaluator (flows.GroundTruth) performs zero steady-state heap
// allocations per evaluation once the pool is warm.
//
// Results are value-identical to unpooled evaluations — recycling
// changes where storage comes from, never what is computed (recycled
// buffers are re-initialized exactly like fresh ones at every layer).
//
// An explicit mutex-guarded freelist rather than sync.Pool: states must
// never be dropped by GC pressure mid-cycle (the allocation guards in
// the tests depend on deterministic reuse), and the pool's high-water
// mark is the largest number of evaluations ever in flight at once.
//
// The netlists inside a pooled state's results are recycled storage:
// they are valid only until the state is Released. A Pool is safe for
// concurrent use and owns no goroutines.
type Pool struct {
	mu        sync.Mutex
	states    []*EvalState
	scratches []*evalScratch
}

// NewPool returns an empty pool.
func NewPool() *Pool { return &Pool{} }

// getState pops a carcass or makes a fresh one, owned by this pool.
func (p *Pool) getState() *EvalState {
	p.mu.Lock()
	if n := len(p.states); n > 0 {
		st := p.states[n-1]
		p.states = p.states[:n-1]
		p.mu.Unlock()
		st.released = false
		return st
	}
	p.mu.Unlock()
	return &EvalState{pool: p}
}

func (p *Pool) getScratch() *evalScratch {
	p.mu.Lock()
	if n := len(p.scratches); n > 0 {
		sc := p.scratches[n-1]
		p.scratches = p.scratches[:n-1]
		p.mu.Unlock()
		return sc
	}
	p.mu.Unlock()
	return &evalScratch{}
}

func (p *Pool) putScratch(sc *evalScratch) {
	p.mu.Lock()
	p.scratches = append(p.scratches, sc)
	p.mu.Unlock()
}

// EvaluateState evaluates g like Evaluate, drawing all storage from the
// pool. The returned state holds the result's netlist; Release it once
// the result is no longer read, so its storage is recycled.
func (p *Pool) EvaluateState(g *aig.AIG, lib *cell.Library) (Result, *EvalState, error) {
	st := p.getState()
	sc := p.getScratch()
	r, err := evaluateInto(g, lib, st, sc)
	p.putScratch(sc)
	if err != nil {
		st.Release()
		return Result{}, nil, err
	}
	return r, st, nil
}

// Release returns the state's storage to its owning pool. It is the
// caller's guarantee that nothing references the state anymore — its
// mapping state, netlists, and STA results are all cannibalized by the
// next evaluation the pool serves. Safe on nil and on unpooled states
// (no-op); releasing the same state twice panics, since two later
// evaluations would then share storage.
func (s *EvalState) Release() {
	if s == nil || s.pool == nil {
		return
	}
	if s.released {
		panic("signoff: EvalState released twice")
	}
	s.released = true
	p := s.pool
	p.mu.Lock()
	p.states = append(p.states, s)
	p.mu.Unlock()
}
