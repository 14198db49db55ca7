package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"slices"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/eval"
)

// protocolVersion gates compatibility: a worker refuses a config
// message, and a hub a hello, that carries a different version, so
// peers built from different releases fail at connection time instead
// of misreading each other's messages. Bump it on any change to a
// message layout.
const protocolVersion = 7

// maxPayload bounds one message; anything larger indicates a framing
// desync or a hostile peer, not a real sweep artifact.
const maxPayload = 1 << 30

// Message types. The coordinator drives the session (config, bases,
// seeds, jobs, bye); the worker only ever answers a job.
const (
	msgConfig    byte = 1 // coordinator -> worker: version + RunConfig
	msgBase      byte = 2 // coordinator -> worker: a base graph, shipped once
	msgJob       byte = 3 // coordinator -> worker: one grid point
	msgBye       byte = 4 // coordinator -> worker: drain and close
	msgResult    byte = 5 // worker -> coordinator: completed grid point
	msgJobError  byte = 6 // worker -> coordinator: grid point failed
	msgCacheSeed byte = 7 // coordinator -> worker: merged cache records to preseed

	// Hub extensions (protocol v3).
	msgHello        byte = 8  // peer -> hub: protocol version, role, display name
	msgSubmit       byte = 9  // client -> hub: one full session (config + bases + jobs)
	msgSubmitResult byte = 10 // hub -> client: one job's result payload, forwarded verbatim
	msgSubmitDone   byte = 11 // hub -> client: submission outcome + session stats
	msgEndSession   byte = 12 // hub -> worker: drop per-session state, stay connected
)

// Hello roles.
const (
	roleWorker byte = 1
	roleClient byte = 2
)

// RunConfig is the session-wide configuration a coordinator installs on
// every worker before sending jobs: the annealing base parameters every
// grid point derives from, the session's entries (each a base graph
// paired with the evaluator the workers must reconstruct for it), and
// the cell library (nil = the built-in library).
type RunConfig struct {
	Base    anneal.Params
	Entries []EntrySpec
	Library []byte // cell.WriteLibrary bytes; nil selects cell.Builtin
}

// EntrySpec is one sweep of a session: the index of its base graph in
// the session's base list (several entries may share one base — e.g.
// the same design swept under different guiding evaluators) and the
// evaluator of that sweep. Caches are scoped per entry: metrics from
// different evaluators are not interchangeable, so cache records never
// cross entry boundaries.
type EntrySpec struct {
	Base int
	Eval EvalSpec
}

// EvalSpec names the guiding evaluator of a sweep in a form that can
// cross a process boundary: a kind plus the serialized models it needs.
// The shard layer only transports it — interpretation (constructing the
// evaluator) belongs to the Runner implementation, which is what keeps
// this package free of a dependency on the flows it serves.
type EvalSpec struct {
	Kind        string // "baseline" | "ground-truth" | "ml"
	DelayModel  []byte // gbdt JSON (ml only)
	AreaModel   []byte // gbdt JSON (ml only, optional)
	AreaPerNode bool   // ml area-model convention
}

// StoreHash returns a stable 64-bit identity of the spec as evaluated in
// a session over library (cell.WriteLibrary bytes, nil for the builtin):
// FNV-1a over its kind, model blobs, and area convention, with length
// framing so distinct field splits cannot collide, and, for a
// ground-truth spec, the library bytes framed the same way. Only ground
// truth scores with the library, and the builtin adds nothing, so its
// keys are the library-free ones. Paired with a base graph's aig.Hash it
// forms eval.StoreKey, the persistent store's notion of "same sweep":
// two sessions share stored records exactly when they sweep the same
// structure under an evaluator that would reconstruct identically.
func (s EvalSpec) StoreHash(library []byte) uint64 {
	h := fnv.New64a()
	var lenBuf [binary.MaxVarintLen64]byte
	field := func(b []byte) {
		n := binary.PutUvarint(lenBuf[:], uint64(len(b)))
		h.Write(lenBuf[:n])
		h.Write(b)
	}
	field([]byte(s.Kind))
	field(s.DelayModel)
	field(s.AreaModel)
	if s.AreaPerNode {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	if s.Kind == "ground-truth" && len(library) > 0 {
		field(library)
	}
	return h.Sum64()
}

// JobSpec is one grid point: the session entry it belongs to, a
// session-unique result index, and the hyperparameters and seed offset
// of that run (mirroring flows.GridPoint without importing it).
type JobSpec struct {
	Entry                          int // index into RunConfig.Entries
	Index                          int // session-unique result slot
	DelayWeight, AreaWeight, Decay float64
	SeedOffset                     int64
}

// WorkResult is what a Runner produces for one job: the annealing
// result plus the ground-truth metrics of its winner.
type WorkResult struct {
	Result                   *anneal.Result
	TrueDelayPS, TrueAreaUM2 float64
}

// JobResult pairs a completed job with its outcome on the coordinator
// side.
type JobResult struct {
	Entry                    int // session entry the job belonged to
	Index                    int
	TrueDelayPS, TrueAreaUM2 float64
	Result                   *anneal.Result
}

// ---- framing ----

func writeMsg(w *bufio.Writer, typ byte, payload []byte) error {
	if err := w.WriteByte(typ); err != nil {
		return err
	}
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(payload)))
	if _, err := w.Write(lenBuf[:n]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readChunk is the most readMsg allocates ahead of the bytes that fill
// it.
const readChunk = 64 << 10

// readMsg reads one frame of at most maxPayload bytes. io.EOF before
// the frame's first byte is an orderly close; a frame cut short after it
// is io.ErrUnexpectedEOF. The payload buffer starts at readChunk at most
// and doubles only once the bytes received fill it, so a length prefix
// alone cannot make readMsg allocate.
func readMsg(r *bufio.Reader) (byte, []byte, error) { return readMsgLimit(r, maxPayload) }

// readMsgLimit is readMsg for frames whose payload may hold at most
// limit bytes: a larger frame is rejected from its length prefix, before
// any of its payload is read.
func readMsgLimit(r *bufio.Reader, limit uint64) (byte, []byte, error) {
	typ, err := r.ReadByte()
	if err != nil {
		return 0, nil, err
	}
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return 0, nil, unexpectedEOF(err)
	}
	if n > limit {
		return 0, nil, fmt.Errorf("shard: message of %d bytes exceeds the %d-byte limit", n, limit)
	}
	payload := make([]byte, 0, min(n, readChunk))
	for uint64(len(payload)) < n {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, int(min(n-uint64(len(payload)), uint64(len(payload)))))
		}
		end := int(min(n, uint64(cap(payload))))
		got, err := io.ReadFull(r, payload[len(payload):end])
		payload = payload[:len(payload)+got]
		if err != nil {
			return 0, nil, unexpectedEOF(err)
		}
	}
	return typ, payload, nil
}

// unexpectedEOF reports io.EOF inside a frame as io.ErrUnexpectedEOF.
func unexpectedEOF(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// ---- primitive encoders ----

func appendUvarint(b []byte, v uint64) []byte { return binary.AppendUvarint(b, v) }

func appendVarint(b []byte, v int64) []byte { return binary.AppendVarint(b, v) }

// appendF64 stores the exact bit pattern (fixed 8 bytes, little
// endian): metric values must survive the wire bit-identically for the
// byte-identity guarantee to hold.
func appendF64(b []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

func appendBytes(b, v []byte) []byte {
	b = appendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

func appendString(b []byte, s string) []byte {
	b = appendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// dec is a bounds-checked payload reader; the first error sticks so
// call sites can decode a whole struct and check once.
type dec struct {
	data []byte
	err  error
}

func (d *dec) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("shard: truncated or corrupt %s", what)
	}
}

func (d *dec) uvarint(what string) uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *dec) varint(what string) int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.data)
	if n <= 0 {
		d.fail(what)
		return 0
	}
	d.data = d.data[n:]
	return v
}

func (d *dec) f64(what string) float64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.fail(what)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.data))
	d.data = d.data[8:]
	return v
}

func (d *dec) u64(what string) uint64 {
	if d.err != nil {
		return 0
	}
	if len(d.data) < 8 {
		d.fail(what)
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data)
	d.data = d.data[8:]
	return v
}

func (d *dec) boolean(what string) bool {
	if d.err != nil {
		return false
	}
	if len(d.data) < 1 {
		d.fail(what)
		return false
	}
	v := d.data[0] != 0
	d.data = d.data[1:]
	return v
}

func (d *dec) bytes(what string) []byte {
	n := d.uvarint(what)
	if d.err != nil {
		return nil
	}
	if n > uint64(len(d.data)) {
		d.fail(what)
		return nil
	}
	if n == 0 {
		return nil
	}
	v := d.data[:n:n]
	d.data = d.data[n:]
	return v
}

func (d *dec) str(what string) string { return string(d.bytes(what)) }

// ---- config ----

func encodeConfig(cfg RunConfig) []byte {
	b := []byte{protocolVersion}
	p := cfg.Base
	b = appendVarint(b, int64(p.Iterations))
	b = appendF64(b, p.StartTemp)
	b = appendF64(b, p.DecayRate)
	b = appendF64(b, p.DelayWeight)
	b = appendF64(b, p.AreaWeight)
	b = appendVarint(b, p.Seed)
	b = appendVarint(b, int64(p.BatchSize))
	b = appendVarint(b, int64(p.BatchMin))
	b = appendVarint(b, int64(p.BatchMax))
	b = appendVarint(b, int64(p.Workers))
	b = appendVarint(b, int64(p.Chains))
	b = appendVarint(b, int64(p.CacheMode))
	b = appendVarint(b, int64(p.CacheMaxEntries))
	// Evaluator specs are deduplicated into a table — a suite sweeping
	// many designs under one ML flow ships its (potentially large) model
	// blobs once, not once per entry; entries reference specs by index
	// the same way they reference bases.
	var specs []EvalSpec
	specIdx := make([]int, len(cfg.Entries))
	for i, e := range cfg.Entries {
		found := -1
		for j := range specs {
			if sameEvalSpec(specs[j], e.Eval) {
				found = j
				break
			}
		}
		if found < 0 {
			found = len(specs)
			specs = append(specs, e.Eval)
		}
		specIdx[i] = found
	}
	b = appendUvarint(b, uint64(len(specs)))
	for _, sp := range specs {
		b = appendString(b, sp.Kind)
		b = appendBytes(b, sp.DelayModel)
		b = appendBytes(b, sp.AreaModel)
		b = appendBool(b, sp.AreaPerNode)
	}
	b = appendUvarint(b, uint64(len(cfg.Entries)))
	for i, e := range cfg.Entries {
		b = appendUvarint(b, uint64(e.Base))
		b = appendUvarint(b, uint64(specIdx[i]))
	}
	b = appendBytes(b, cfg.Library)
	return b
}

// sameEvalSpec reports whether two specs would reconstruct the same
// evaluator (the config encoder's dedup predicate).
func sameEvalSpec(a, b EvalSpec) bool {
	return a.Kind == b.Kind && a.AreaPerNode == b.AreaPerNode &&
		bytes.Equal(a.DelayModel, b.DelayModel) && bytes.Equal(a.AreaModel, b.AreaModel)
}

func decodeConfig(payload []byte) (RunConfig, error) {
	if len(payload) < 1 {
		return RunConfig{}, fmt.Errorf("shard: empty config")
	}
	if payload[0] != protocolVersion {
		return RunConfig{}, fmt.Errorf("shard: protocol version %d, this worker speaks %d", payload[0], protocolVersion)
	}
	d := &dec{data: payload[1:]}
	var cfg RunConfig
	cfg.Base.Iterations = int(d.varint("iterations"))
	cfg.Base.StartTemp = d.f64("start temp")
	cfg.Base.DecayRate = d.f64("decay rate")
	cfg.Base.DelayWeight = d.f64("delay weight")
	cfg.Base.AreaWeight = d.f64("area weight")
	cfg.Base.Seed = d.varint("seed")
	cfg.Base.BatchSize = int(d.varint("batch size"))
	cfg.Base.BatchMin = int(d.varint("batch min"))
	cfg.Base.BatchMax = int(d.varint("batch max"))
	cfg.Base.Workers = int(d.varint("workers"))
	cfg.Base.Chains = int(d.varint("chains"))
	cfg.Base.CacheMode = anneal.CacheMode(d.varint("cache mode"))
	cfg.Base.CacheMaxEntries = int(d.varint("cache max entries"))
	numSpecs := d.uvarint("spec count")
	if d.err != nil {
		return RunConfig{}, d.err
	}
	if numSpecs == 0 || numSpecs > uint64(len(d.data))+1 {
		return RunConfig{}, fmt.Errorf("shard: implausible spec count %d", numSpecs)
	}
	specs := make([]EvalSpec, numSpecs)
	for i := range specs {
		sp := &specs[i]
		sp.Kind = d.str("eval kind")
		sp.DelayModel = d.bytes("delay model")
		sp.AreaModel = d.bytes("area model")
		sp.AreaPerNode = d.boolean("area per node")
	}
	numEntries := d.uvarint("entry count")
	if d.err != nil {
		return RunConfig{}, d.err
	}
	if numEntries == 0 || numEntries > uint64(len(d.data))+1 {
		return RunConfig{}, fmt.Errorf("shard: implausible entry count %d", numEntries)
	}
	cfg.Entries = make([]EntrySpec, numEntries)
	for i := range cfg.Entries {
		e := &cfg.Entries[i]
		e.Base = int(d.uvarint("entry base"))
		si := d.uvarint("entry spec")
		if d.err != nil {
			return RunConfig{}, d.err
		}
		if si >= numSpecs {
			return RunConfig{}, fmt.Errorf("shard: entry %d references spec %d of %d", i, si, numSpecs)
		}
		e.Eval = specs[si]
	}
	cfg.Library = d.bytes("library")
	return cfg, d.err
}

// ---- base graph ----

// emptyLike returns the dictionary-free encoding base: a graph with the
// same PI count and no AND nodes. Encoding against it makes every node
// explicit, i.e. an exact, order-preserving full-graph serialization
// using the same codec warm transfers use.
func emptyLike(numPIs int) *aig.AIG { return aig.NewBuilder(numPIs).Build() }

func encodeBase(id uint32, g *aig.AIG) ([]byte, error) {
	rec, err := aig.EncodeDelta(emptyLike(g.NumPIs()), g)
	if err != nil {
		return nil, err
	}
	b := appendUvarint(nil, uint64(id))
	b = appendUvarint(b, uint64(g.NumPIs()))
	b = appendBytes(b, rec)
	return b, nil
}

func decodeBase(payload []byte) (uint32, *aig.AIG, error) {
	d := &dec{data: payload}
	id := d.uvarint("base id")
	numPIs := d.uvarint("base PI count")
	rec := d.bytes("base record")
	if d.err != nil {
		return 0, nil, d.err
	}
	if numPIs > 1<<20 {
		return 0, nil, fmt.Errorf("shard: implausible base PI count %d", numPIs)
	}
	g, err := aig.DecodeDelta(emptyLike(int(numPIs)), rec)
	if err != nil {
		return 0, nil, err
	}
	return uint32(id), g, nil
}

// ---- jobs ----

func encodeJob(j JobSpec) []byte {
	b := appendUvarint(nil, uint64(j.Entry))
	b = appendUvarint(b, uint64(j.Index))
	b = appendF64(b, j.DelayWeight)
	b = appendF64(b, j.AreaWeight)
	b = appendF64(b, j.Decay)
	b = appendVarint(b, j.SeedOffset)
	return b
}

func decodeJob(payload []byte) (JobSpec, error) {
	d := &dec{data: payload}
	var j JobSpec
	j.Entry = int(d.uvarint("job entry"))
	j.Index = int(d.uvarint("job index"))
	j.DelayWeight = d.f64("delay weight")
	j.AreaWeight = d.f64("area weight")
	j.Decay = d.f64("decay")
	j.SeedOffset = d.varint("seed offset")
	return j, d.err
}

// ---- cache seeds ----

// encodeSeed serializes a mid-sweep preseed push: merged cache records
// of one session entry that this worker has not contributed or received
// before.
func encodeSeed(entry int, recs []eval.CacheRecord) []byte {
	b := appendUvarint(nil, uint64(entry))
	b = appendUvarint(b, uint64(len(recs)))
	for _, rec := range recs {
		b = appendU64(b, rec.FP)
		b = appendU64(b, rec.SH)
		b = appendF64(b, rec.M.DelayPS)
		b = appendF64(b, rec.M.AreaUM2)
	}
	return b
}

func decodeSeed(payload []byte) (int, []eval.CacheRecord, error) {
	d := &dec{data: payload}
	entry := int(d.uvarint("seed entry"))
	n := d.uvarint("seed record count")
	if d.err != nil {
		return 0, nil, d.err
	}
	if n > uint64(len(d.data)) {
		return 0, nil, fmt.Errorf("shard: implausible seed record count %d", n)
	}
	recs := make([]eval.CacheRecord, n)
	for i := range recs {
		recs[i].FP = d.u64("seed fp")
		recs[i].SH = d.u64("seed sh")
		recs[i].M.DelayPS = d.f64("seed delay")
		recs[i].M.AreaUM2 = d.f64("seed area")
	}
	if d.err == nil && len(d.data) != 0 {
		return 0, nil, fmt.Errorf("shard: %d trailing seed bytes", len(d.data))
	}
	return entry, recs, d.err
}

func encodeJobError(index int, err error) []byte {
	b := appendUvarint(nil, uint64(index))
	return appendString(b, err.Error())
}

func decodeJobError(payload []byte) (int, string, error) {
	d := &dec{data: payload}
	idx := int(d.uvarint("job index"))
	msg := d.str("error")
	return idx, msg, d.err
}

// ---- results ----

// resultWire is the transfer and preseed accounting of one decoded
// result message, fed into the coordinator's Stats. The prefilter
// counters are session-cumulative snapshots of the sending worker.
type resultWire struct {
	deltaRecords      int
	deltaBytes        int64
	prefilterHits     int64
	prefilterRejected int64
}

// encodeResult serializes a completed job. Graphs (the per-chain best
// AIGs) are shipped exclusively as delta records against the job's base
// — after the base transfers, no full graph ever crosses the wire.
// Appended cache records export the worker's memo entries new since the
// previous result, and the trailing prefilter counters report the
// session-cumulative preseed effect (oracle calls skipped, records
// rejected as witnessed collisions) for coordinator-side accounting.
func encodeResult(base *aig.AIG, index int, wr *WorkResult, recs []eval.CacheRecord, cs eval.CacheStats) ([]byte, error) {
	r := wr.Result
	if len(r.Chains) == 0 {
		return nil, fmt.Errorf("shard: result without chain outcomes")
	}
	winner := 0
	for i := range r.Chains {
		if r.Chains[i].Best == r.Best {
			winner = i
			break
		}
	}
	b := appendUvarint(nil, uint64(index))
	b = appendF64(b, wr.TrueDelayPS)
	b = appendF64(b, wr.TrueAreaUM2)
	b = appendUvarint(b, uint64(winner))
	b = appendF64(b, r.Initial.DelayPS)
	b = appendF64(b, r.Initial.AreaUM2)
	b = appendVarint(b, int64(r.Evals))
	b = appendVarint(b, int64(r.SpeculativeEvals))
	b = appendVarint(b, r.CacheHits)
	b = appendVarint(b, r.CacheMisses)
	b = appendVarint(b, r.DeltaEvals)
	b = appendVarint(b, r.FullEvals)
	b = appendVarint(b, int64(r.MoveTime))
	b = appendVarint(b, int64(r.EvalTime))
	b = appendVarint(b, int64(r.InitialEvalTime))
	b = appendUvarint(b, uint64(len(r.Chains)))
	for i := range r.Chains {
		c := &r.Chains[i]
		b = appendVarint(b, int64(c.Chain))
		b = appendVarint(b, c.Seed)
		b = appendF64(b, c.BestCost)
		b = appendF64(b, c.BestMetrics.DelayPS)
		b = appendF64(b, c.BestMetrics.AreaUM2)
		b = appendVarint(b, int64(c.Accepted))
		b = appendUvarint(b, uint64(len(c.History)))
		for _, s := range c.History {
			b = appendVarint(b, int64(s.Iter))
			b = appendString(b, s.Recipe)
			b = appendF64(b, s.Metrics.DelayPS)
			b = appendF64(b, s.Metrics.AreaUM2)
			b = appendF64(b, s.Cost)
			b = appendBool(b, s.Accepted)
			b = appendVarint(b, int64(s.Ands))
			b = appendVarint(b, int64(s.Levels))
		}
		rec, err := aig.EncodeDelta(base, c.Best)
		if err != nil {
			return nil, fmt.Errorf("shard: encoding chain %d best: %w", i, err)
		}
		b = appendBytes(b, rec)
	}
	b = appendUvarint(b, uint64(len(recs)))
	for _, rec := range recs {
		b = appendU64(b, rec.FP)
		b = appendU64(b, rec.SH)
		b = appendF64(b, rec.M.DelayPS)
		b = appendF64(b, rec.M.AreaUM2)
	}
	b = appendVarint(b, cs.PrefilterHits)
	b = appendVarint(b, cs.PrefilterRejected)
	return b, nil
}

// decodeResult reconstructs a JobResult against the session base. The
// top-level Best/BestCost/BestMetrics/History alias the winning chain,
// and Accepted re-aggregates over chains, exactly as anneal.Run builds
// its Result.
func decodeResult(base *aig.AIG, payload []byte) (JobResult, []eval.CacheRecord, resultWire, error) {
	d := &dec{data: payload}
	var jr JobResult
	var wire resultWire
	jr.Index = int(d.uvarint("job index"))
	jr.TrueDelayPS = d.f64("true delay")
	jr.TrueAreaUM2 = d.f64("true area")
	winner := int(d.uvarint("winner"))
	r := &anneal.Result{}
	r.Initial.DelayPS = d.f64("initial delay")
	r.Initial.AreaUM2 = d.f64("initial area")
	r.Evals = int(d.varint("evals"))
	r.SpeculativeEvals = int(d.varint("speculative evals"))
	r.CacheHits = d.varint("cache hits")
	r.CacheMisses = d.varint("cache misses")
	r.DeltaEvals = d.varint("delta evals")
	r.FullEvals = d.varint("full evals")
	r.MoveTime = time.Duration(d.varint("move time"))
	r.EvalTime = time.Duration(d.varint("eval time"))
	r.InitialEvalTime = time.Duration(d.varint("initial eval time"))
	numChains := d.uvarint("chain count")
	if d.err != nil {
		return JobResult{}, nil, wire, d.err
	}
	if numChains == 0 || numChains > uint64(len(d.data)) {
		return JobResult{}, nil, wire, fmt.Errorf("shard: implausible chain count %d", numChains)
	}
	for i := 0; i < int(numChains); i++ {
		var c anneal.ChainResult
		c.Chain = int(d.varint("chain index"))
		c.Seed = d.varint("chain seed")
		c.BestCost = d.f64("chain best cost")
		c.BestMetrics.DelayPS = d.f64("chain best delay")
		c.BestMetrics.AreaUM2 = d.f64("chain best area")
		c.Accepted = int(d.varint("chain accepted"))
		hist := d.uvarint("history length")
		if d.err != nil {
			return JobResult{}, nil, wire, d.err
		}
		if hist > uint64(len(d.data)) {
			return JobResult{}, nil, wire, fmt.Errorf("shard: implausible history length %d", hist)
		}
		c.History = make([]anneal.Step, hist)
		for h := range c.History {
			s := &c.History[h]
			s.Iter = int(d.varint("step iter"))
			s.Recipe = d.str("step recipe")
			s.Metrics.DelayPS = d.f64("step delay")
			s.Metrics.AreaUM2 = d.f64("step area")
			s.Cost = d.f64("step cost")
			s.Accepted = d.boolean("step accepted")
			s.Ands = int(d.varint("step ands"))
			s.Levels = int32(d.varint("step levels"))
		}
		rec := d.bytes("chain best record")
		if d.err != nil {
			return JobResult{}, nil, wire, d.err
		}
		g, err := aig.DecodeDelta(base, rec)
		if err != nil {
			return JobResult{}, nil, wire, fmt.Errorf("shard: decoding chain %d best: %w", i, err)
		}
		c.Best = g
		wire.deltaRecords++
		wire.deltaBytes += int64(len(rec))
		r.Accepted += c.Accepted
		r.Chains = append(r.Chains, c)
	}
	if winner < 0 || winner >= len(r.Chains) {
		return JobResult{}, nil, wire, fmt.Errorf("shard: winner %d out of %d chains", winner, len(r.Chains))
	}
	w := &r.Chains[winner]
	r.Best, r.BestCost, r.BestMetrics, r.History = w.Best, w.BestCost, w.BestMetrics, w.History
	nrec := d.uvarint("cache record count")
	if d.err != nil {
		return JobResult{}, nil, wire, d.err
	}
	if nrec > uint64(len(d.data)) {
		return JobResult{}, nil, wire, fmt.Errorf("shard: implausible cache record count %d", nrec)
	}
	recs := make([]eval.CacheRecord, nrec)
	for i := range recs {
		recs[i].FP = d.u64("cache fp")
		recs[i].SH = d.u64("cache sh")
		recs[i].M.DelayPS = d.f64("cache delay")
		recs[i].M.AreaUM2 = d.f64("cache area")
	}
	wire.prefilterHits = d.varint("prefilter hits")
	wire.prefilterRejected = d.varint("prefilter rejected")
	if d.err != nil {
		return JobResult{}, nil, wire, d.err
	}
	if len(d.data) != 0 {
		return JobResult{}, nil, wire, fmt.Errorf("shard: %d trailing result bytes", len(d.data))
	}
	jr.Result = r
	return jr, recs, wire, nil
}

// ---- hub handshake ----

// encodeHello opens a hub connection: the protocol version (checked
// before anything else, so mismatched peers fail loudly at connect
// time), the peer's role, and a display name for logs and stats.
func encodeHello(role byte, name string) []byte {
	b := []byte{protocolVersion, role}
	return appendString(b, name)
}

func decodeHello(payload []byte) (role byte, name string, err error) {
	if len(payload) < 2 {
		return 0, "", fmt.Errorf("shard: truncated hello")
	}
	if payload[0] != protocolVersion {
		return 0, "", fmt.Errorf("shard: hello protocol version %d, this hub speaks %d", payload[0], protocolVersion)
	}
	d := &dec{data: payload[2:]}
	name = d.str("hello name")
	return payload[1], name, d.err
}

// ---- submissions ----

// encodeSubmit packs one whole session — the already-encoded config,
// every base payload (in base-index order), and every job — into one
// client message. Reusing the session payload encodings means the hub
// re-ships them to workers byte-for-byte.
func encodeSubmit(cfgPayload []byte, basePayloads [][]byte, jobs []JobSpec) []byte {
	b := appendBytes(nil, cfgPayload)
	b = appendUvarint(b, uint64(len(basePayloads)))
	for _, bp := range basePayloads {
		b = appendBytes(b, bp)
	}
	b = appendUvarint(b, uint64(len(jobs)))
	for _, j := range jobs {
		b = appendBytes(b, encodeJob(j))
	}
	return b
}

func decodeSubmit(payload []byte) ([]*aig.AIG, RunConfig, []JobSpec, error) {
	d := &dec{data: payload}
	cfgPayload := d.bytes("submit config")
	if d.err != nil {
		return nil, RunConfig{}, nil, d.err
	}
	cfg, err := decodeConfig(cfgPayload)
	if err != nil {
		return nil, RunConfig{}, nil, err
	}
	nb := d.uvarint("submit base count")
	if d.err != nil {
		return nil, RunConfig{}, nil, d.err
	}
	if nb > uint64(len(d.data)) {
		return nil, RunConfig{}, nil, fmt.Errorf("shard: implausible submit base count %d", nb)
	}
	bases := make([]*aig.AIG, nb)
	for i := range bases {
		bp := d.bytes("submit base")
		if d.err != nil {
			return nil, RunConfig{}, nil, d.err
		}
		id, g, err := decodeBase(bp)
		if err != nil {
			return nil, RunConfig{}, nil, err
		}
		if int(id) != i {
			return nil, RunConfig{}, nil, fmt.Errorf("shard: submit base %d carries id %d", i, id)
		}
		bases[i] = g
	}
	nj := d.uvarint("submit job count")
	if d.err != nil {
		return nil, RunConfig{}, nil, d.err
	}
	if nj > uint64(len(d.data)) {
		return nil, RunConfig{}, nil, fmt.Errorf("shard: implausible submit job count %d", nj)
	}
	jobs := make([]JobSpec, nj)
	for i := range jobs {
		jp := d.bytes("submit job")
		if d.err != nil {
			return nil, RunConfig{}, nil, d.err
		}
		j, err := decodeJob(jp)
		if err != nil {
			return nil, RunConfig{}, nil, err
		}
		jobs[i] = j
	}
	if d.err == nil && len(d.data) != 0 {
		return nil, RunConfig{}, nil, fmt.Errorf("shard: %d trailing submit bytes", len(d.data))
	}
	return bases, cfg, jobs, d.err
}

// resultIndex peeks the job index off a result payload without
// decoding the rest — the client needs it to pick the base graph the
// full decode runs against.
func resultIndex(payload []byte) (int, error) {
	v, n := binary.Uvarint(payload)
	if n <= 0 {
		return 0, fmt.Errorf("shard: truncated result index")
	}
	return int(v), nil
}

// Submission outcome kinds carried by msgSubmitDone.
const (
	submitOK        byte = 0
	submitJobFailed byte = 1 // a JobFailedError, reconstructed field by field
	submitError     byte = 2 // any other error, as a string
)

// encodeSubmitDone closes a submission: the outcome (success, a
// JobFailedError with enough structure for the client to rebuild it,
// or an opaque error string) followed by the session's Stats.
func encodeSubmitDone(runErr error, st *Stats) []byte {
	var b []byte
	switch e := runErr.(type) {
	case nil:
		b = append(b, submitOK)
	case *JobFailedError:
		b = append(b, submitJobFailed)
		b = appendBytes(b, encodeJob(e.Job))
		b = appendUvarint(b, uint64(e.Attempts))
		b = appendString(b, e.Msg)
	default:
		b = append(b, submitError)
		b = appendString(b, runErr.Error())
	}
	return appendStats(b, st)
}

func decodeSubmitDone(payload []byte) (*Stats, error, error) {
	if len(payload) < 1 {
		return nil, nil, fmt.Errorf("shard: empty submit outcome")
	}
	d := &dec{data: payload[1:]}
	var runErr error
	switch payload[0] {
	case submitOK:
	case submitJobFailed:
		jp := d.bytes("failed job")
		attempts := int(d.uvarint("failed attempts"))
		msg := d.str("failed message")
		if d.err != nil {
			return nil, nil, d.err
		}
		job, err := decodeJob(jp)
		if err != nil {
			return nil, nil, err
		}
		runErr = &JobFailedError{Job: job, Attempts: attempts, Msg: msg}
	case submitError:
		runErr = fmt.Errorf("%s", d.str("submission error"))
	default:
		return nil, nil, fmt.Errorf("shard: unknown submit outcome kind %d", payload[0])
	}
	st, err := decodeStats(d)
	if err != nil {
		return nil, nil, err
	}
	if len(d.data) != 0 {
		return nil, nil, fmt.Errorf("shard: %d trailing submit outcome bytes", len(d.data))
	}
	return st, runErr, nil
}

// ---- stats ----

// appendStats serializes a session's full Stats — scalars, the merged
// caches (so a hub client sees the same cluster-wide memo view a local
// coordinator would), and the per-worker breakdown.
func appendStats(b []byte, st *Stats) []byte {
	b = appendVarint(b, int64(st.BaseSends))
	b = appendVarint(b, st.BaseBytes)
	b = appendVarint(b, int64(st.DeltaRecords))
	b = appendVarint(b, st.DeltaBytes)
	b = appendVarint(b, int64(st.JobSends))
	b = appendVarint(b, int64(st.Retries))
	b = appendVarint(b, int64(st.Requeues))
	b = appendVarint(b, int64(st.WorkerLosses))
	b = appendVarint(b, int64(st.Handoffs))
	b = appendVarint(b, int64(st.QueueDepth))
	b = appendVarint(b, st.BytesSent)
	b = appendVarint(b, st.BytesReceived)
	b = appendVarint(b, int64(st.CacheRecords))
	b = appendVarint(b, int64(st.CacheDuplicates))
	b = appendVarint(b, int64(st.SeedPushes))
	b = appendVarint(b, int64(st.SeedRecords))
	b = appendVarint(b, st.SeedBytes)
	b = appendVarint(b, st.PrefilterHits)
	b = appendVarint(b, st.PrefilterRejected)
	b = appendVarint(b, int64(st.StoreLoaded))
	b = appendVarint(b, int64(st.StoreFlushed))
	b = appendUvarint(b, uint64(len(st.MergedCaches)))
	for _, m := range st.MergedCaches {
		b = appendUvarint(b, uint64(len(m)))
		for k, v := range m {
			b = appendU64(b, k.FP)
			b = appendU64(b, k.SH)
			b = appendF64(b, v.DelayPS)
			b = appendF64(b, v.AreaUM2)
		}
	}
	b = appendUvarint(b, uint64(len(st.Workers)))
	for _, w := range st.Workers {
		b = appendString(b, w.Name)
		b = appendVarint(b, int64(w.Jobs))
		b = appendBool(b, w.Lost)
		b = appendVarint(b, w.PrefilterHits)
		b = appendVarint(b, w.PrefilterRejected)
	}
	return b
}

func decodeStats(d *dec) (*Stats, error) {
	st := &Stats{}
	st.BaseSends = int(d.varint("base sends"))
	st.BaseBytes = d.varint("base bytes")
	st.DeltaRecords = int(d.varint("delta records"))
	st.DeltaBytes = d.varint("delta bytes")
	st.JobSends = int(d.varint("job sends"))
	st.Retries = int(d.varint("retries"))
	st.Requeues = int(d.varint("requeues"))
	st.WorkerLosses = int(d.varint("worker losses"))
	st.Handoffs = int(d.varint("handoffs"))
	st.QueueDepth = int(d.varint("queue depth"))
	st.BytesSent = d.varint("bytes sent")
	st.BytesReceived = d.varint("bytes received")
	st.CacheRecords = int(d.varint("cache records"))
	st.CacheDuplicates = int(d.varint("cache duplicates"))
	st.SeedPushes = int(d.varint("seed pushes"))
	st.SeedRecords = int(d.varint("seed records"))
	st.SeedBytes = d.varint("seed bytes")
	st.PrefilterHits = d.varint("prefilter hits")
	st.PrefilterRejected = d.varint("prefilter rejected")
	st.StoreLoaded = int(d.varint("store loaded"))
	st.StoreFlushed = int(d.varint("store flushed"))
	ne := d.uvarint("merged cache count")
	if d.err != nil {
		return nil, d.err
	}
	if ne > uint64(len(d.data))+1 {
		return nil, fmt.Errorf("shard: implausible merged cache count %d", ne)
	}
	st.MergedCaches = make([]map[eval.CacheKey]eval.Metrics, ne)
	for e := range st.MergedCaches {
		nr := d.uvarint("merged record count")
		if d.err != nil {
			return nil, d.err
		}
		if nr > uint64(len(d.data)) {
			return nil, fmt.Errorf("shard: implausible merged record count %d", nr)
		}
		m := make(map[eval.CacheKey]eval.Metrics, nr)
		for i := uint64(0); i < nr; i++ {
			var k eval.CacheKey
			var v eval.Metrics
			k.FP = d.u64("merged fp")
			k.SH = d.u64("merged sh")
			v.DelayPS = d.f64("merged delay")
			v.AreaUM2 = d.f64("merged area")
			m[k] = v
		}
		st.MergedCaches[e] = m
	}
	nw := d.uvarint("worker count")
	if d.err != nil {
		return nil, d.err
	}
	if nw > uint64(len(d.data))+1 {
		return nil, fmt.Errorf("shard: implausible worker count %d", nw)
	}
	st.Workers = make([]WorkerStats, nw)
	for i := range st.Workers {
		w := &st.Workers[i]
		w.Name = d.str("worker name")
		w.Jobs = int(d.varint("worker jobs"))
		w.Lost = d.boolean("worker lost")
		w.PrefilterHits = d.varint("worker prefilter hits")
		w.PrefilterRejected = d.varint("worker prefilter rejected")
	}
	return st, d.err
}
