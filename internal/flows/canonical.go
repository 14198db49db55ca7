package flows

import (
	"encoding/binary"
	"fmt"
	"math"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
)

// AppendCanonical appends the point's canonical byte form: every
// deterministic field of the sweep point, in a fixed order, with float
// values as exact bit patterns and graphs in binary AIGER form. Two
// sweeps that run every entry with the same resolved cost knobs — local
// or sharded, at any worker count or retry schedule — produce
// byte-identical canonical forms; the sharded sweep's tests are built
// on exactly this predicate. Evals and SpeculativeEvals count
// speculative work and so follow the batch bounds: with
// SweepConfig.AutoTune on, a multi-entry sharded or hub suite (tuned
// once, against its first entry) and a local SweepSuite (tuned per
// entry) can differ in those two fields of later entries, while every
// other field — trajectory, best graph, ground-truth metrics — stays
// identical.
//
// Wall-clock fields (MoveTime, EvalTime, InitialEvalTime) and
// shared-stack counters (CacheHits/CacheMisses, DeltaEvals/FullEvals)
// are deliberately excluded: they describe the schedule that computed
// the result, not the result.
func (p SweepPoint) AppendCanonical(b []byte) []byte {
	b = appendCanonF64(b, p.DelayWeight)
	b = appendCanonF64(b, p.AreaWeight)
	b = appendCanonF64(b, p.Decay)
	b = appendCanonF64(b, p.TrueDelayPS)
	b = appendCanonF64(b, p.TrueAreaUM2)
	r := p.Result
	if r == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	b = appendCanonF64(b, r.BestCost)
	b = appendCanonF64(b, r.BestMetrics.DelayPS)
	b = appendCanonF64(b, r.BestMetrics.AreaUM2)
	b = appendCanonF64(b, r.Initial.DelayPS)
	b = appendCanonF64(b, r.Initial.AreaUM2)
	b = binary.AppendVarint(b, int64(r.Accepted))
	b = binary.AppendVarint(b, int64(r.Evals))
	b = binary.AppendVarint(b, int64(r.SpeculativeEvals))
	b = appendCanonGraph(b, r.Best)
	b = appendCanonHistory(b, r.History)
	b = binary.AppendUvarint(b, uint64(len(r.Chains)))
	for i := range r.Chains {
		c := &r.Chains[i]
		b = binary.AppendVarint(b, int64(c.Chain))
		b = binary.AppendVarint(b, c.Seed)
		b = appendCanonF64(b, c.BestCost)
		b = appendCanonF64(b, c.BestMetrics.DelayPS)
		b = appendCanonF64(b, c.BestMetrics.AreaUM2)
		b = binary.AppendVarint(b, int64(c.Accepted))
		b = appendCanonGraph(b, c.Best)
		b = appendCanonHistory(b, c.History)
	}
	return b
}

// CanonicalizeSweep concatenates the canonical forms of all points —
// the byte string two equivalent sweeps are compared on.
func CanonicalizeSweep(pts []SweepPoint) []byte {
	b := binary.AppendUvarint(nil, uint64(len(pts)))
	for _, p := range pts {
		b = p.AppendCanonical(b)
	}
	return b
}

func appendCanonF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

// canonWriter adapts append-style building to WriteBinary's io.Writer.
type canonWriter struct{ b []byte }

func (w *canonWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

func appendCanonGraph(b []byte, g *aig.AIG) []byte {
	if g == nil {
		return append(b, 0)
	}
	b = append(b, 1)
	w := &canonWriter{}
	if err := g.WriteBinary(w); err != nil {
		// Graphs in this repository are topologically ordered by
		// construction; a failure here is a programming error, and the
		// canonical form must not silently compare equal.
		w.b = append(w.b[:0], []byte(fmt.Sprintf("unencodable: %v", err))...)
	}
	b = binary.AppendUvarint(b, uint64(len(w.b)))
	return append(b, w.b...)
}

func appendCanonHistory(b []byte, hist []anneal.Step) []byte {
	b = binary.AppendUvarint(b, uint64(len(hist)))
	for _, s := range hist {
		b = binary.AppendVarint(b, int64(s.Iter))
		b = binary.AppendUvarint(b, uint64(len(s.Recipe)))
		b = append(b, s.Recipe...)
		b = appendCanonF64(b, s.Metrics.DelayPS)
		b = appendCanonF64(b, s.Metrics.AreaUM2)
		b = appendCanonF64(b, s.Cost)
		if s.Accepted {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = binary.AppendVarint(b, int64(s.Ands))
		b = binary.AppendVarint(b, int64(s.Levels))
	}
	return b
}
