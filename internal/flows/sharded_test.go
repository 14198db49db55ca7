package flows

import (
	"bytes"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"

	"aigtimer/internal/anneal"
	"aigtimer/internal/cell"
	"aigtimer/internal/shard"
)

// loopbackWorkers starts n in-process sweepd-equivalent workers (the
// production runner over net.Pipe transports) and returns the
// coordinator-side conns plus a wait function.
func loopbackWorkers(n int) ([]io.ReadWriteCloser, func()) {
	conns := make([]io.ReadWriteCloser, n)
	var wg sync.WaitGroup
	for i := range conns {
		c, w := net.Pipe()
		conns[i] = c
		wg.Add(1)
		go func(w io.ReadWriteCloser) {
			defer wg.Done()
			shard.Serve(w, NewShardRunner())
		}(w)
	}
	return conns, wg.Wait
}

func shardTestSweepConfig(seed int64) SweepConfig {
	return SweepConfig{
		Base: anneal.Params{
			Iterations: 10, StartTemp: 0.05, DecayRate: 0.95, Seed: seed,
			BatchSize: 4,
		},
		DelayWeights: []float64{1},
		AreaWeights:  []float64{0, 0.5},
		DecayRates:   []float64{0.9, 0.95},
	}
}

// TestSweepShardedByteIdentical is the distributed driver's core
// guarantee: over two real worker sessions, every deterministic field
// of every sweep point is byte-identical to the single-machine sweep,
// for each shippable evaluator kind.
func TestSweepShardedByteIdentical(t *testing.T) {
	g := testAIG(21)
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
			cfg := shardTestSweepConfig(7)
			local, err := Sweep(g, tc.ev, lib, cfg)
			if err != nil {
				t.Fatal(err)
			}
			conns, wait := loopbackWorkers(2)
			sharded, st, err := SweepSharded(g, tc.ev, lib, cfg, ShardOptions{Conns: conns})
			if err != nil {
				t.Fatal(err)
			}
			wait()
			lb, sb := CanonicalizeSweep(local), CanonicalizeSweep(sharded)
			if !bytes.Equal(lb, sb) {
				for i := range local {
					pl := local[i].AppendCanonical(nil)
					ps := sharded[i].AppendCanonical(nil)
					if !bytes.Equal(pl, ps) {
						t.Fatalf("sweep point %d differs between local and sharded execution", i)
					}
				}
				t.Fatal("canonical sweeps differ")
			}
			// Warm handoff: the base graph crossed once per worker and
			// every returned graph was a delta record.
			if st.BaseSends != 2 {
				t.Fatalf("base sends = %d, want 2", st.BaseSends)
			}
			if st.DeltaRecords != len(local) { // single chain per point
				t.Fatalf("delta records = %d, want %d", st.DeltaRecords, len(local))
			}
			if st.DeltaBytes <= 0 {
				t.Fatal("no delta bytes accounted")
			}
		})
	}
}

// Killing one of the two workers mid-sweep must leave the merged
// results byte-identical to the local reference (the coordinator
// reassigns the lost worker's grid points). The schedule is forced:
// worker 1's transport stays gated until worker 0 is killed with a job
// in flight, so the reassignment provably happens.
func TestSweepShardedWorkerLossByteIdentical(t *testing.T) {
	g := testAIG(22)
	lib := cell.Builtin()
	cfg := shardTestSweepConfig(3)
	local, err := Sweep(g, Proxy{}, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conns, wait := loopbackWorkers(2)
	gate := make(chan struct{})
	// Worker 0: flush #1 carries config+base, #2 the first job; flush #3
	// would dispatch its second job — dying there strands that assigned
	// grid point mid-sweep. Killing opens the gate for worker 1.
	conns[0] = &killOnWrite{ReadWriteCloser: conns[0], allow: 2, onKill: func() { close(gate) }}
	conns[1] = &gatedConn{ReadWriteCloser: conns[1], gate: gate}
	sharded, st, err := SweepSharded(g, Proxy{}, lib, cfg, ShardOptions{Conns: conns})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if !bytes.Equal(CanonicalizeSweep(local), CanonicalizeSweep(sharded)) {
		t.Fatal("results after worker loss differ from local reference")
	}
	if st.WorkerLosses != 1 || st.Requeues != 1 {
		t.Fatalf("expected one lost worker with one requeued job: %+v", st)
	}
	if st.Workers[0].Jobs != 1 || !st.Workers[0].Lost {
		t.Fatalf("dead worker should have delivered exactly one result: %+v", st.Workers)
	}
	if st.Workers[1].Jobs != len(local)-1 {
		t.Fatalf("survivor should have finished the rest: %+v", st.Workers)
	}
}

// killOnWrite lets `allow` coordinator flushes through, then fails and
// severs the transport (calling onKill once).
type killOnWrite struct {
	io.ReadWriteCloser
	mu     sync.Mutex
	allow  int
	onKill func()
}

func (k *killOnWrite) Write(p []byte) (int, error) {
	k.mu.Lock()
	if k.allow <= 0 {
		kill := k.onKill
		k.onKill = nil
		k.mu.Unlock()
		if kill != nil {
			k.ReadWriteCloser.Close()
			kill()
		}
		return 0, errors.New("injected worker loss")
	}
	k.allow--
	k.mu.Unlock()
	return k.ReadWriteCloser.Write(p)
}

// gatedConn stalls all coordinator-side traffic until the gate opens,
// pinning the session's jobs on the other worker meanwhile.
type gatedConn struct {
	io.ReadWriteCloser
	gate <-chan struct{}
}

func (g *gatedConn) Write(p []byte) (int, error) {
	<-g.gate
	return g.ReadWriteCloser.Write(p)
}

// Arbitrary user evaluators have no wire form; the driver must say so
// instead of silently running something else.
func TestSweepShardedRejectsUnshippableEvaluator(t *testing.T) {
	g := testAIG(23)
	conns, wait := loopbackWorkers(1)
	defer wait()
	for _, c := range conns {
		defer c.Close()
	}
	_, _, err := SweepSharded(g, brokenEval{}, cell.Builtin(), shardTestSweepConfig(1), ShardOptions{Conns: conns})
	if err == nil {
		t.Fatal("unshippable evaluator accepted")
	}
}

// TestSweepSuiteShardedRefusesForeignLibraryEntry: workers rebuild a
// ground-truth entry over the session's library, so an entry guided by
// ground truth over another library would silently be scored under the
// sweep's (best area 88.2 sharded against 262.6 locally, for a
// tripled-area entry library). SweepSuiteSharded must refuse it by
// name, over conns and through a hub, while the local SweepSuite still
// sweeps it under its own library.
func TestSweepSuiteShardedRefusesForeignLibraryEntry(t *testing.T) {
	g := testAIG(65)
	cfg := shardTestSweepConfig(13)
	entries := []SuiteEntry{
		{Name: "proxy", G: g, Eval: Proxy{}},
		{Name: "tripled-gt", G: g, Eval: NewGroundTruth(scaledLibrary(t, 3))},
	}
	refused := func(how string, err error) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), `"tripled-gt"`) {
			t.Errorf("%s: err = %v, want a refusal naming the entry", how, err)
		}
	}

	conns, wait := loopbackWorkers(1)
	_, _, err := SweepSuiteSharded(entries, cell.Builtin(), cfg, ShardOptions{Conns: conns})
	for _, c := range conns {
		c.Close()
	}
	wait()
	refused("over conns", err)

	h := shard.NewHub(shard.HubOptions{Logf: t.Logf})
	defer h.Close()
	startHubWorker(h, "w0")
	client := hubClientConn(h)
	defer client.Close()
	_, _, err = SweepSuiteSharded(entries, cell.Builtin(), cfg, ShardOptions{HubConn: client})
	refused("through a hub", err)

	if _, err := SweepSuite(entries, cell.Builtin(), cfg); err != nil {
		t.Fatalf("local SweepSuite refused the suite: %v", err)
	}
}

// Multi-chain runs ship one delta record per chain and still merge
// byte-identically.
func TestSweepShardedMultiChain(t *testing.T) {
	g := testAIG(24)
	lib := cell.Builtin()
	cfg := shardTestSweepConfig(9)
	cfg.Base.Chains = 2
	cfg.AreaWeights = []float64{0.5}
	local, err := Sweep(g, Proxy{}, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	conns, wait := loopbackWorkers(2)
	sharded, st, err := SweepSharded(g, Proxy{}, lib, cfg, ShardOptions{Conns: conns})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if !bytes.Equal(CanonicalizeSweep(local), CanonicalizeSweep(sharded)) {
		t.Fatal("multi-chain sharded sweep differs from local")
	}
	if want := len(local) * 2; st.DeltaRecords != want {
		t.Fatalf("delta records = %d, want %d (2 chains per point)", st.DeltaRecords, want)
	}
}
