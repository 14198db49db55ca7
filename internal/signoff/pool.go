package signoff

import (
	"sync"

	"aigtimer/internal/aig"
	"aigtimer/internal/cell"
)

// Pool evaluates graphs through the signoff pipeline, recycling
// EvalStates: an evaluation drawn from a pool reuses the enumerator,
// mapper, netlists and STA results of a previously Released state, so
// a retained evaluator (flows.GroundTruth) performs zero steady-state
// heap allocations per evaluation once the pool is warm.
//
// Results do not depend on which state an evaluation draws: recycling
// changes where storage comes from, never what is computed (recycled
// buffers are re-initialized exactly like fresh ones at every layer).
//
// An explicit mutex-guarded freelist rather than sync.Pool: states must
// never be dropped by GC pressure mid-cycle (the allocation guards in
// the tests depend on deterministic reuse), and the pool's high-water
// mark is the largest number of states ever live at once.
//
// The zero Pool is ready to use. A Pool is safe for concurrent use and
// owns no goroutines.
type Pool struct {
	mu     sync.Mutex
	states []*EvalState
}

// Evaluate maps g onto lib at both efforts, times both netlists, and
// returns the signoff metrics of the better one, together with the
// state that holds them. The result's netlist is the state's storage:
// it is valid only until the state is Released, and Release should
// follow once the result is no longer read.
func (p *Pool) Evaluate(g *aig.AIG, lib *cell.Library) (Result, *EvalState, error) {
	p.mu.Lock()
	var st *EvalState
	if n := len(p.states); n > 0 {
		st = p.states[n-1]
		p.states = p.states[:n-1]
		st.released = false
	} else {
		st = &EvalState{pool: p}
	}
	p.mu.Unlock()
	r, err := st.evaluate(g, lib)
	if err != nil {
		st.Release()
		return Result{}, nil, err
	}
	return r, st, nil
}

// Release returns the state's storage to its owning pool. It is the
// caller's guarantee that nothing references the state anymore — its
// netlists and STA results are all recycled by the next evaluation the
// pool serves. Safe on nil; releasing the same state twice panics,
// since two later evaluations would then share storage.
func (s *EvalState) Release() {
	if s == nil {
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
