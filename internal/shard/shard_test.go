package shard

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/eval"
)

// testAIG builds a deterministic random AIG.
func testAIG(seed int64) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	b := aig.NewBuilder(8)
	lits := make([]aig.Lit, 0, 120)
	for i := 0; i < 8; i++ {
		lits = append(lits, b.PI(i))
	}
	for len(lits) < 120 {
		a := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		c := lits[rng.Intn(len(lits))].NotIf(rng.Intn(2) == 0)
		lits = append(lits, b.And(a, c))
	}
	for i := 0; i < 4; i++ {
		b.AddPO(lits[len(lits)-1-rng.Intn(30)])
	}
	return b.Build().Compact()
}

// levelsEval is the proxy-style oracle the fake runner anneals with.
type levelsEval struct{}

func (levelsEval) Name() string { return "levels" }
func (levelsEval) Evaluate(g *aig.AIG) eval.Metrics {
	return eval.Metrics{DelayPS: float64(g.MaxLevel()) + 1, AreaUM2: float64(g.NumAnds()) + 1}
}

// fakeRunner is a flows-free Runner: real annealing runs over per-entry
// cached proxy oracles, with injectable failures and a connection-kill
// hook.
type fakeRunner struct {
	cfg    RunConfig
	caches []*eval.Cached
	warmed map[*aig.AIG]bool

	mu        sync.Mutex
	failTimes map[int]int // job index -> remaining injected failures
	killConn  io.Closer   // when set, closed before the killAfter-th Run returns
	killAfter int
	jobsRun   int
	cacheSeq  []int

	onRun       func(JobSpec) // when set, invoked at the start of every Run
	endSessions int           // EndSession call count
}

func newFakeRunner() *fakeRunner {
	return &fakeRunner{failTimes: map[int]int{}, warmed: map[*aig.AIG]bool{}}
}

func (r *fakeRunner) Configure(cfg RunConfig) error {
	caches := make([]*eval.Cached, len(cfg.Entries))
	for i := range caches {
		caches[i] = eval.NewCached(eval.AsOracle(levelsEval{}, 1))
	}
	r.mu.Lock()
	r.cfg = cfg
	r.caches = caches
	r.cacheSeq = make([]int, len(cfg.Entries))
	r.mu.Unlock()
	return nil
}

// cache returns entry's cache under the lock; Preseed runs on the
// serve loop's reader goroutine, concurrent with Run and EndSession.
func (r *fakeRunner) cache(entry int) *eval.Cached {
	r.mu.Lock()
	defer r.mu.Unlock()
	if entry < 0 || entry >= len(r.caches) {
		return nil
	}
	return r.caches[entry]
}

func (r *fakeRunner) Run(base *aig.AIG, job JobSpec) (*WorkResult, error) {
	r.mu.Lock()
	hook := r.onRun
	r.mu.Unlock()
	if hook != nil {
		hook(job)
	}
	r.mu.Lock()
	if n := r.failTimes[job.Index]; n > 0 {
		r.failTimes[job.Index] = n - 1
		r.mu.Unlock()
		return nil, fmt.Errorf("injected failure for job %d", job.Index)
	}
	r.jobsRun++
	kill := r.killConn != nil && r.jobsRun > r.killAfter
	r.mu.Unlock()
	if !r.warmed[base] {
		base.Levels()
		base.FanoutCounts()
		base.PairIndex()
		r.warmed[base] = true
	}
	p := r.cfg.Base
	p.DelayWeight, p.AreaWeight, p.DecayRate = job.DelayWeight, job.AreaWeight, job.Decay
	p.Seed = r.cfg.Base.Seed + job.SeedOffset
	res, err := anneal.Run(base, r.cache(job.Entry), p)
	if err != nil {
		return nil, err
	}
	if kill {
		r.killConn.Close() // simulate the worker process dying mid-job
	}
	m := levelsEval{}.Evaluate(res.Best)
	return &WorkResult{Result: res, TrueDelayPS: m.DelayPS, TrueAreaUM2: m.AreaUM2}, nil
}

func (r *fakeRunner) CacheSnapshot(entry int) []eval.CacheRecord {
	r.mu.Lock()
	defer r.mu.Unlock()
	if entry < 0 || entry >= len(r.caches) {
		return nil
	}
	recs, seq := r.caches[entry].ExportSince(r.cacheSeq[entry])
	r.cacheSeq[entry] = seq
	return recs
}

func (r *fakeRunner) Preseed(entry int, recs []eval.CacheRecord) {
	if c := r.cache(entry); c != nil {
		c.ImportRecords(recs)
	}
}

func (r *fakeRunner) EndSession() {
	r.mu.Lock()
	r.endSessions++
	r.caches = nil
	r.cacheSeq = nil
	r.mu.Unlock()
	r.warmed = map[*aig.AIG]bool{}
}

func (r *fakeRunner) CacheStats() eval.CacheStats {
	r.mu.Lock()
	caches := r.caches
	r.mu.Unlock()
	var s eval.CacheStats
	for _, c := range caches {
		cs := c.Stats()
		s.Hits += cs.Hits
		s.Misses += cs.Misses
		s.Entries += cs.Entries
		s.Preseeded += cs.Preseeded
		s.PrefilterHits += cs.PrefilterHits
		s.PrefilterRejected += cs.PrefilterRejected
	}
	return s
}

// testConfig is the shared sweep configuration of these tests: one
// entry over base 0.
func testConfig() RunConfig {
	return RunConfig{
		Base: anneal.Params{
			Iterations: 8, StartTemp: 0.05, DecayRate: 0.95, Seed: 5,
			BatchSize: 4, Chains: 2,
		},
		Entries: []EntrySpec{{Base: 0, Eval: EvalSpec{Kind: "baseline"}}},
	}
}

func testJobs(n int) []JobSpec {
	jobs := make([]JobSpec, n)
	for i := range jobs {
		jobs[i] = JobSpec{
			Entry:       0,
			Index:       i,
			DelayWeight: 1,
			AreaWeight:  0.2 * float64(i),
			Decay:       0.95,
			SeedOffset:  int64(i),
		}
	}
	return jobs
}

// reference computes the expected results by running every job locally
// through an identically configured runner.
func reference(t *testing.T, base *aig.AIG, cfg RunConfig, jobs []JobSpec) []*WorkResult {
	t.Helper()
	r := newFakeRunner()
	if err := r.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	out := make([]*WorkResult, len(jobs))
	for i, j := range jobs {
		wr, err := r.Run(base, j)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = wr
	}
	return out
}

// sameResult compares the deterministic payload of two annealing
// results (graphs, metrics, trajectory); timing and cache counters are
// schedule-dependent by design and excluded.
func sameResult(a, b *anneal.Result) error {
	if a.BestCost != b.BestCost || a.BestMetrics != b.BestMetrics || a.Initial != b.Initial {
		return fmt.Errorf("headline metrics differ: (%v %v %v) vs (%v %v %v)",
			a.BestCost, a.BestMetrics, a.Initial, b.BestCost, b.BestMetrics, b.Initial)
	}
	if a.Accepted != b.Accepted || a.Evals != b.Evals || a.SpeculativeEvals != b.SpeculativeEvals {
		return fmt.Errorf("counters differ: (%d %d %d) vs (%d %d %d)",
			a.Accepted, a.Evals, a.SpeculativeEvals, b.Accepted, b.Evals, b.SpeculativeEvals)
	}
	if !a.Best.StructuralEqual(b.Best) {
		return errors.New("best graphs differ")
	}
	if len(a.Chains) != len(b.Chains) {
		return fmt.Errorf("chain counts differ: %d vs %d", len(a.Chains), len(b.Chains))
	}
	for i := range a.Chains {
		ca, cb := &a.Chains[i], &b.Chains[i]
		if ca.Chain != cb.Chain || ca.Seed != cb.Seed || ca.BestCost != cb.BestCost ||
			ca.BestMetrics != cb.BestMetrics || ca.Accepted != cb.Accepted {
			return fmt.Errorf("chain %d header differs", i)
		}
		if !ca.Best.StructuralEqual(cb.Best) {
			return fmt.Errorf("chain %d best graphs differ", i)
		}
		if len(ca.History) != len(cb.History) {
			return fmt.Errorf("chain %d history lengths differ", i)
		}
		for h := range ca.History {
			if ca.History[h] != cb.History[h] {
				return fmt.Errorf("chain %d step %d differs: %+v vs %+v", i, h, ca.History[h], cb.History[h])
			}
		}
	}
	if len(a.History) != len(b.History) {
		return errors.New("winner history lengths differ")
	}
	for h := range a.History {
		if a.History[h] != b.History[h] {
			return fmt.Errorf("winner step %d differs", h)
		}
	}
	return nil
}

// startWorkers launches n in-process worker sessions over net.Pipe and
// returns the coordinator-side conns, the runners, and a wait function.
func startWorkers(runners []*fakeRunner) ([]io.ReadWriteCloser, func()) {
	conns := make([]io.ReadWriteCloser, len(runners))
	var wg sync.WaitGroup
	for i, r := range runners {
		c, w := net.Pipe()
		conns[i] = c
		wg.Add(1)
		go func(r *fakeRunner, w io.ReadWriteCloser) {
			defer wg.Done()
			Serve(w, r) // session errors are the tests' business via stats
		}(r, w)
	}
	return conns, wg.Wait
}

func TestLoopbackShardedRunMatchesLocal(t *testing.T) {
	base := testAIG(1)
	cfg := testConfig()
	jobs := testJobs(6)
	want := reference(t, base, cfg, jobs)

	runners := []*fakeRunner{newFakeRunner(), newFakeRunner()}
	conns, wait := startWorkers(runners)
	got, st, err := Run([]*aig.AIG{base}, cfg, jobs, Options{Conns: conns})
	if err != nil {
		t.Fatal(err)
	}
	wait()

	for i := range jobs {
		if got[i].Index != jobs[i].Index {
			t.Fatalf("result %d carries index %d", i, got[i].Index)
		}
		if got[i].TrueDelayPS != want[i].TrueDelayPS || got[i].TrueAreaUM2 != want[i].TrueAreaUM2 {
			t.Fatalf("job %d true metrics differ", i)
		}
		if err := sameResult(got[i].Result, want[i].Result); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}

	// Warm handoff accounting: one base per worker, everything else
	// delta records (chains bests per job), zero full graphs after that.
	if st.BaseSends != 2 {
		t.Fatalf("base sends = %d, want 2 (one per worker)", st.BaseSends)
	}
	wantRecords := len(jobs) * 2 // Chains: 2
	if st.DeltaRecords != wantRecords {
		t.Fatalf("delta records = %d, want %d", st.DeltaRecords, wantRecords)
	}
	if st.DeltaBytes <= 0 || st.BaseBytes <= 0 {
		t.Fatalf("byte accounting empty: %+v", st)
	}
	if st.JobSends != len(jobs) || st.Retries != 0 || st.WorkerLosses != 0 {
		t.Fatalf("unexpected scheduling stats: %+v", st)
	}
	// Both workers evaluate the shared root, so the merged cache must
	// have seen at least one cross-worker duplicate fingerprint, and
	// hold every distinct structure.
	if st.MergedStructures() == 0 || st.CacheRecords < st.MergedStructures() {
		t.Fatalf("cache merge accounting implausible: %d records, %d merged", st.CacheRecords, st.MergedStructures())
	}
	if st.CacheDuplicates == 0 {
		t.Fatal("expected cross-worker duplicate cache records (both workers score the root)")
	}
	// Work stealing: both workers must have contributed.
	if st.Workers[0].Jobs == 0 || st.Workers[1].Jobs == 0 {
		t.Fatalf("work not spread across workers: %+v", st.Workers)
	}
}

// A worker dying mid-sweep (connection killed while a job is in
// flight) must not lose results: the coordinator requeues the job on
// the surviving worker and the merged output still matches the local
// reference.
func TestWorkerKilledMidSweepRetriesElsewhere(t *testing.T) {
	base := testAIG(2)
	cfg := testConfig()
	jobs := testJobs(6)
	want := reference(t, base, cfg, jobs)

	dying, healthy := newFakeRunner(), newFakeRunner()
	dying.killAfter = 1 // complete one job, die during the second
	conns, wait := startWorkers([]*fakeRunner{dying, healthy})
	dying.killConn = conns[0]

	got, st, err := Run([]*aig.AIG{base}, cfg, jobs, Options{Conns: conns})
	if err != nil {
		t.Fatal(err)
	}
	wait()

	for i := range jobs {
		if err := sameResult(got[i].Result, want[i].Result); err != nil {
			t.Fatalf("job %d after worker loss: %v", i, err)
		}
	}
	if st.WorkerLosses != 1 {
		t.Fatalf("worker losses = %d, want 1", st.WorkerLosses)
	}
	if st.Requeues != 1 {
		t.Fatalf("requeues = %d, want 1 (the in-flight job)", st.Requeues)
	}
	if st.Workers[1].Jobs != len(jobs)-1 {
		t.Fatalf("surviving worker completed %d jobs, want %d", st.Workers[1].Jobs, len(jobs)-1)
	}
	if !st.Workers[0].Lost || st.Workers[1].Lost {
		t.Fatalf("loss attribution wrong: %+v", st.Workers)
	}
}

// A job that fails on one worker is retried on another (exclusion), and
// succeeds there.
func TestJobErrorRetriedOnOtherWorker(t *testing.T) {
	base := testAIG(3)
	cfg := testConfig()
	jobs := testJobs(4)
	want := reference(t, base, cfg, jobs)

	flaky, healthy := newFakeRunner(), newFakeRunner()
	for i := range jobs {
		flaky.failTimes[i] = 99 // every job fails on this worker, always
	}
	conns, wait := startWorkers([]*fakeRunner{flaky, healthy})
	got, st, err := Run([]*aig.AIG{base}, cfg, jobs, Options{Conns: conns})
	if err != nil {
		t.Fatal(err)
	}
	wait()

	for i := range jobs {
		if err := sameResult(got[i].Result, want[i].Result); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
	if st.Retries == 0 {
		t.Fatal("expected at least one retry")
	}
	if st.WorkerLosses != 0 {
		t.Fatalf("no worker should be lost: %+v", st)
	}
}

// When a job fails everywhere, the run reports a JobFailedError with
// the job's grid coordinates after exhausting MaxAttempts — but only
// after finishing every other job.
func TestJobErrorExhaustsAttempts(t *testing.T) {
	base := testAIG(4)
	cfg := testConfig()
	jobs := testJobs(4)

	r1, r2 := newFakeRunner(), newFakeRunner()
	r1.failTimes[1] = 99
	r2.failTimes[1] = 99
	conns, wait := startWorkers([]*fakeRunner{r1, r2})
	_, st, err := Run([]*aig.AIG{base}, cfg, jobs, Options{Conns: conns, MaxAttempts: 3})
	wait()
	if err == nil {
		t.Fatal("doomed job reported no error")
	}
	var jfe *JobFailedError
	if !errors.As(err, &jfe) {
		t.Fatalf("error %T is not a JobFailedError", err)
	}
	if jfe.Job.Index != 1 || jfe.Attempts != 3 {
		t.Fatalf("wrong failure attribution: %+v", jfe)
	}
	// The other jobs still completed (visible through worker stats).
	done := 0
	for _, w := range st.Workers {
		done += w.Jobs
	}
	if done != len(jobs)-1 {
		t.Fatalf("completed %d jobs, want %d", done, len(jobs)-1)
	}
}

// Losing every worker with work outstanding is an error, not a hang.
func TestAllWorkersLost(t *testing.T) {
	base := testAIG(5)
	cfg := testConfig()
	jobs := testJobs(3)

	r := newFakeRunner()
	r.killAfter = 0 // die during the first job
	conns, wait := startWorkers([]*fakeRunner{r})
	r.killConn = conns[0]
	_, _, err := Run([]*aig.AIG{base}, cfg, jobs, Options{Conns: conns})
	wait()
	if err == nil {
		t.Fatal("fleet loss reported no error")
	}
}

func TestConfigRoundTrip(t *testing.T) {
	in := RunConfig{
		Base: anneal.Params{
			Iterations: 77, StartTemp: 0.123, DecayRate: 0.987,
			DelayWeight: 1.5, AreaWeight: 0.25, Seed: -9,
			BatchSize: 6, BatchMin: 2, BatchMax: 16, Workers: 3, Chains: 2,
			CacheMode: anneal.CacheOn, CacheMaxEntries: 512,
			Incremental: anneal.IncrementalOff, IncrementalThreshold: 0.5,
		},
		Entries: []EntrySpec{
			{Base: 0, Eval: EvalSpec{Kind: "ml", DelayModel: []byte(`{"trees":[]}`), AreaModel: []byte(`{}`), AreaPerNode: true}},
			{Base: 0, Eval: EvalSpec{Kind: "baseline"}},
			{Base: 1, Eval: EvalSpec{Kind: "ground-truth"}},
		},
		Library: []byte("library demo"),
	}
	out, err := decodeConfig(encodeConfig(in))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Base, in.Base) || !reflect.DeepEqual(out.Entries, in.Entries) {
		t.Fatalf("config did not round-trip: %+v vs %+v", out, in)
	}
	if string(out.Library) != string(in.Library) {
		t.Fatal("config blobs did not round-trip")
	}
	if _, err := decodeConfig([]byte{99}); err == nil {
		t.Fatal("wrong protocol version accepted")
	}
	// Entries sharing an evaluator spec share its wire encoding: adding
	// a second entry with the same ML models must cost entry-reference
	// bytes, not another copy of the blobs.
	base := len(encodeConfig(in))
	in.Entries = append(in.Entries, EntrySpec{Base: 1, Eval: in.Entries[0].Eval})
	if grown := len(encodeConfig(in)) - base; grown >= len(in.Entries[0].Eval.DelayModel) {
		t.Fatalf("duplicate spec re-encoded: +%d bytes for a shared-spec entry", grown)
	}
	out, err = decodeConfig(encodeConfig(in))
	if err != nil || !reflect.DeepEqual(out.Entries, in.Entries) {
		t.Fatalf("shared-spec config did not round-trip: %v", err)
	}
}

func TestJobAndBaseRoundTrip(t *testing.T) {
	in := JobSpec{Entry: 2, Index: 12, DelayWeight: 1, AreaWeight: 0.5, Decay: 0.9, SeedOffset: -4}
	out, err := decodeJob(encodeJob(in))
	if err != nil || out != in {
		t.Fatalf("job round-trip: %v %+v", err, out)
	}
	g := testAIG(6)
	payload, err := encodeBase(3, g)
	if err != nil {
		t.Fatal(err)
	}
	id, got, err := decodeBase(payload)
	if err != nil || id != 3 {
		t.Fatalf("base round-trip: %v %d", err, id)
	}
	if !got.StructuralEqual(g) {
		t.Fatal("base graph not reconstructed exactly")
	}
}

func TestSeedRoundTrip(t *testing.T) {
	in := []eval.CacheRecord{
		{FP: 0xdeadbeef, M: eval.Metrics{DelayPS: 12.5, AreaUM2: 3.25}},
		{FP: 1, M: eval.Metrics{DelayPS: -0.0, AreaUM2: 1e300}},
	}
	entry, out, err := decodeSeed(encodeSeed(5, in))
	if err != nil || entry != 5 || !reflect.DeepEqual(in, out) {
		t.Fatalf("seed round-trip: %v %d %+v", err, entry, out)
	}
	entry, out, err = decodeSeed(encodeSeed(0, nil))
	if err != nil || entry != 0 || len(out) != 0 {
		t.Fatalf("empty seed round-trip: %v %d %+v", err, entry, out)
	}
}

// TestReadMsgAllocatesAsBytesArrive sends a frame header claiming the
// largest allowed payload and then closes: the read must fail as a
// truncated frame without allocating anywhere near the claimed size.
func TestReadMsgAllocatesAsBytesArrive(t *testing.T) {
	var hdr bytes.Buffer
	bw := bufio.NewWriter(&hdr)
	bw.WriteByte(msgHello)
	var lenBuf [binary.MaxVarintLen64]byte
	bw.Write(lenBuf[:binary.PutUvarint(lenBuf[:], maxPayload)])
	bw.Flush()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readMsg(bufio.NewReader(bytes.NewReader(hdr.Bytes())))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated frame: err %v, want io.ErrUnexpectedEOF", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("truncated frame allocated %d bytes", grew)
	}
}

// TestReadMsgRoundTrip checks payloads that end short of, on and past
// the read chunk boundaries, and a frame cut inside its length prefix.
func TestReadMsgRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{0, 1, readChunk - 1, readChunk, readChunk + 1, 3*readChunk + 17} {
		want := make([]byte, n)
		rng.Read(want)
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeMsg(bw, msgJob, want); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		typ, got, err := readMsg(bufio.NewReader(&buf))
		if err != nil || typ != msgJob || !bytes.Equal(got, want) {
			t.Fatalf("%d-byte payload: type %d, err %v, equal %v", n, typ, err, bytes.Equal(got, want))
		}
	}
	_, _, err := readMsg(bufio.NewReader(bytes.NewReader([]byte{msgJob, 0x80})))
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("frame cut in its length: err %v, want io.ErrUnexpectedEOF", err)
	}
}
