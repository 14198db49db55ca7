package flows

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/anneal"
	"aigtimer/internal/cell"
	"aigtimer/internal/shard"
)

// startHubWorker registers a production-runner worker with the hub over
// the real handshake path and returns a kill function (closing the
// worker side of the transport, as a crashing process would).
func startHubWorker(h *shard.Hub, name string) func() {
	hubSide, workerSide := net.Pipe()
	go h.HandleConn(hubSide)
	go shard.RegisterWorker(workerSide, name, NewShardRunner())
	var once sync.Once
	return func() { once.Do(func() { workerSide.Close() }) }
}

// hubClientConn returns the client side of a fresh hub connection.
func hubClientConn(h *shard.Hub) io.ReadWriteCloser {
	hubSide, clientSide := net.Pipe()
	go h.HandleConn(hubSide)
	return clientSide
}

// TestSweepShardedViaHubByteIdentical is acceptance test (c) of the hub
// protocol: a sweep submitted to a resident hub — whose fleet runs the
// jobs and forwards result payloads verbatim — must be byte-identical
// to the local sweep for every shippable evaluator kind.
func TestSweepShardedViaHubByteIdentical(t *testing.T) {
	g := testAIG(61)
	lib := cell.Builtin()
	ml := trainTinyML(t, g)
	ml.AreaPerNode = false
	for _, tc := range []struct {
		name string
		ev   anneal.Evaluator
	}{
		{"baseline", Proxy{}},
		{"ground-truth", NewGroundTruth(lib)},
		{"ml", ml},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := shardTestSweepConfig(23)
			local, err := Sweep(g, tc.ev, lib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			h := shard.NewHub(shard.HubOptions{Preseed: true, Logf: t.Logf})
			defer h.Close()
			startHubWorker(h, "w0")
			startHubWorker(h, "w1")
			sharded, st, err := SweepSharded(g, tc.ev, lib, cfg, ShardOptions{HubConn: hubClientConn(h)})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(CanonicalizeSweep(local), CanonicalizeSweep(sharded)) {
				for i := range local {
					if !bytes.Equal(local[i].AppendCanonical(nil), sharded[i].AppendCanonical(nil)) {
						t.Fatalf("sweep point %d differs between local and hub execution", i)
					}
				}
				t.Fatal("canonical sweeps differ")
			}
			if st.BaseSends != 2 {
				t.Fatalf("base sends = %d, want 2 (one per worker admission)", st.BaseSends)
			}
			if st.JobSends < len(local) {
				t.Fatalf("job sends = %d, want >= %d", st.JobSends, len(local))
			}
		})
	}
}

// TestHubChaosTwoClients is the chaos acceptance test: two clients
// submit overlapping suites to one hub running them concurrently over
// partitioned fleets while those fleets churn — a worker joins late,
// one dies mid-sweep, a replacement rejoins — and every entry of both
// suites must still come back byte-identical to a local SweepSuite and
// to a serial (MaxSessions: 1) hub executing the same suites.
func TestHubChaosTwoClients(t *testing.T) {
	gA, gB := testAIG(62), testAIG(63)
	lib := cell.Builtin()
	cfg := shardTestSweepConfig(29)
	suite1 := []SuiteEntry{
		{Name: "A-baseline", G: gA, Eval: Proxy{}},
		{Name: "B-gt", G: gB, Eval: NewGroundTruth(lib)},
		{Name: "A-gt", G: gA, Eval: NewGroundTruth(lib)},
	}
	suite2 := []SuiteEntry{
		{Name: "B-baseline", G: gB, Eval: Proxy{}},
		{Name: "A-gt", G: gA, Eval: NewGroundTruth(lib)},
	}
	local1, err := SweepSuite(suite1, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	local2, err := SweepSuite(suite2, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}

	var done atomic.Int64
	h := shard.NewHub(shard.HubOptions{
		MaxSessions:          2, // both submissions run at once, each over a fleet partition
		MinWorkersPerSession: 1,
		Preseed:              true,
		OnJobDone:            func(int, string) { done.Add(1) },
		Logf:                 t.Logf,
	})
	defer h.Close()
	kill1 := startHubWorker(h, "w1")

	// Fleet churn, keyed off merged-job progress so every event lands
	// while sessions are running: w2 joins late, w1 dies mid-sweep, w3
	// rejoins to replace it.
	churnDone := make(chan struct{})
	go func() {
		defer close(churnDone)
		waitDone := func(n int64) bool {
			deadline := time.Now().Add(30 * time.Second)
			for done.Load() < n {
				if time.Now().After(deadline) {
					return false
				}
				time.Sleep(2 * time.Millisecond)
			}
			return true
		}
		if !waitDone(1) {
			return
		}
		startHubWorker(h, "w2") // late joiner, mid-sweep
		if !waitDone(3) {
			return
		}
		kill1() // dies with work outstanding
		startHubWorker(h, "w3")
	}()

	type result struct {
		suite []SuiteResult
		err   error
	}
	run := func(entries []SuiteEntry, out chan<- result) {
		suite, _, err := SweepSuiteSharded(entries, lib, cfg, ShardOptions{HubConn: hubClientConn(h)})
		out <- result{suite, err}
	}
	c1, c2 := make(chan result, 1), make(chan result, 1)
	go run(suite1, c1)
	go run(suite2, c2)
	r1, r2 := <-c1, <-c2
	<-churnDone
	if r1.err != nil {
		t.Fatalf("client 1: %v", r1.err)
	}
	if r2.err != nil {
		t.Fatalf("client 2: %v", r2.err)
	}
	for e := range suite1 {
		if !bytes.Equal(CanonicalizeSweep(local1[e].Points), CanonicalizeSweep(r1.suite[e].Points)) {
			t.Fatalf("client 1 entry %q differs from local SweepSuite", suite1[e].Name)
		}
	}
	for e := range suite2 {
		if !bytes.Equal(CanonicalizeSweep(local2[e].Points), CanonicalizeSweep(r2.suite[e].Points)) {
			t.Fatalf("client 2 entry %q differs from local SweepSuite", suite2[e].Name)
		}
	}

	// Serial-hub leg: the same suites through a MaxSessions: 1 hub (the
	// FIFO shape concurrent partitioning replaced) must match the
	// chaos run byte for byte — the partition plan changes scheduling,
	// never results.
	hs := shard.NewHub(shard.HubOptions{MaxSessions: 1, Preseed: true, Logf: t.Logf})
	defer hs.Close()
	startHubWorker(hs, "serial")
	serial1, _, err := SweepSuiteSharded(suite1, lib, cfg, ShardOptions{HubConn: hubClientConn(hs)})
	if err != nil {
		t.Fatal(err)
	}
	serial2, _, err := SweepSuiteSharded(suite2, lib, cfg, ShardOptions{HubConn: hubClientConn(hs)})
	if err != nil {
		t.Fatal(err)
	}
	for e := range suite1 {
		if !bytes.Equal(CanonicalizeSweep(serial1[e].Points), CanonicalizeSweep(r1.suite[e].Points)) {
			t.Fatalf("client 1 entry %q differs between serial and concurrent hubs", suite1[e].Name)
		}
	}
	for e := range suite2 {
		if !bytes.Equal(CanonicalizeSweep(serial2[e].Points), CanonicalizeSweep(r2.suite[e].Points)) {
			t.Fatalf("client 2 entry %q differs between serial and concurrent hubs", suite2[e].Name)
		}
	}
}

// bigAIG builds a deterministic random AIG large enough that leaking
// one per session would dominate heap noise. Each AND draws its fanins
// from the 64 literals made just before it, so nearly all of them stay
// in the outputs' cones (about 48k of 60k survive Compact; uniform
// draws from every earlier literal kept only 1,436), and a constant
// result is dropped so it cannot spread through that window.
func bigAIG(seed int64, ands int) *aig.AIG {
	rng := rand.New(rand.NewSource(seed))
	b := aig.NewBuilder(16)
	lits := make([]aig.Lit, 0, ands+16)
	for i := 0; i < 16; i++ {
		lits = append(lits, b.PI(i))
	}
	recent := func() aig.Lit {
		return lits[len(lits)-1-rng.Intn(min(len(lits), 64))].NotIf(rng.Intn(2) == 0)
	}
	for len(lits) < ands+16 {
		if l := b.And(recent(), recent()); !l.IsConst() {
			lits = append(lits, l)
		}
	}
	for i := 0; i < 8; i++ {
		b.AddPO(lits[len(lits)-1-rng.Intn(64)])
	}
	return b.Build().Compact()
}

// TestHubWorkerHeapStableAcrossSessions is the session-boundary leak
// regression: one resident worker connection serving N sequential
// sessions, each with a distinct large base graph, must not accumulate
// heap — the old Serve kept every session's decoded bases (and the
// runner its warm-start map) for the life of the connection.
func TestHubWorkerHeapStableAcrossSessions(t *testing.T) {
	h := shard.NewHub(shard.HubOptions{Logf: t.Logf})
	defer h.Close()
	startHubWorker(h, "w0")

	cfg := SweepConfig{
		Base: anneal.Params{
			Iterations: 3, StartTemp: 0.05, DecayRate: 0.9, Seed: 9,
			BatchSize: 2,
		},
		DelayWeights: []float64{1},
		AreaWeights:  []float64{0},
		DecayRates:   []float64{0.9},
	}
	const sessions = 10
	const warmup = 2 // let pools and lazily built state reach steady state
	heapAfter := func() int64 {
		// The second GC empties the sync.Pool victim caches, which the
		// first only fills: move scratch sized by the 60k-node bases
		// would otherwise still count.
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	var baseline int64
	for i := 0; i < sessions; i++ {
		g := bigAIG(int64(100+i), 60000)
		suite, _, err := SweepSuiteSharded(
			[]SuiteEntry{{Name: "big", G: g, Eval: Proxy{}}},
			cell.Builtin(), cfg, ShardOptions{HubConn: hubClientConn(h)})
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		if len(suite[0].Points) != 1 {
			t.Fatalf("session %d returned %d points", i, len(suite[0].Points))
		}
		suite = nil
		if i == warmup-1 {
			baseline = heapAfter()
		}
	}
	final := heapAfter()
	// Each leaked session would retain its ~48k-AND base plus warmed
	// indices (about 2 MB); 8 post-warmup sessions put a leak far above
	// this margin.
	const margin = 8 << 20
	if grown := final - baseline; grown > margin {
		t.Fatalf("worker heap grew %d bytes across %d sessions (margin %d): session state leaks across session boundaries",
			grown, sessions-warmup, margin)
	}
}
