package shard

import (
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"aigtimer/internal/aig"
)

// This file is the reusable chaos harness for hub scenarios: a script
// of events — submissions (direct or through a framed client), worker
// joins, mid-job crashes, client disconnects — released as the
// hub-wide merged-job counter advances, plus a run gate for steps that
// must land while jobs are provably in flight. Every scenario ends the
// same way: verify() asserts per-entry byte-identity of every
// submission against a local reference, and verifySerialHub() reruns
// the same submissions through a serial (MaxSessions: 1) hub and
// asserts the concurrent run changed nothing. Scenarios are
// deterministic given their seeds; randomized callers (the fairness
// property test) log the schedule seed so a CI failure reproduces.

// chaosStep is one scripted event, released when the hub-wide merged
// job counter reaches after. Exactly one action field should be set.
type chaosStep struct {
	after      int64
	join       string           // register a fresh worker under this name
	crash      string           // close this worker's transport, as a dying process would
	dropClient string           // close this client's connection mid-run
	submit     *chaosSubmission // enqueue a prepared submission
}

// chaosSubmit describes one scripted submission: a testAIG(seed) base
// swept over testJobs(jobs), submitted directly (via == "") or through
// the named framed HubClient.
type chaosSubmit struct {
	name string
	seed int64
	jobs int
	via  string
}

type chaosOutcome struct {
	results []JobResult
	st      *Stats
	err     error
}

// chaosSubmission is one tracked submission: its inputs, the local
// reference it must match, and the channel its outcome arrives on.
type chaosSubmission struct {
	name      string
	via       string // the framed client it goes through, "" for direct
	base      *aig.AIG
	cfg       RunConfig
	jobs      []JobSpec
	want      []*WorkResult
	expectErr bool // client disconnected: the client-side submit must fail
	outc      chan chaosOutcome

	resolved bool         // got is valid; waitOutcome is idempotent
	got      chaosOutcome // filled by the first waitOutcome
}

type chaosHarness struct {
	t    *testing.T
	opts HubOptions
	h    *Hub
	done atomic.Int64 // hub-wide merged jobs, the script clock

	runStarts atomic.Int64  // worker Run invocations entered (gated ones included)
	gateMu    sync.Mutex    // guards gate
	gate      chan struct{} // when non-nil, every worker Run blocks on it

	mu      sync.Mutex
	kills   map[string]func()
	clients map[string]*HubClient
	conns   map[string]io.Closer
	subs    []*chaosSubmission
}

func newChaosHarness(t *testing.T, opts HubOptions) *chaosHarness {
	t.Helper()
	ch := &chaosHarness{
		t: t, kills: map[string]func(){},
		clients: map[string]*HubClient{}, conns: map[string]io.Closer{},
	}
	prev := opts.OnJobDone
	opts.OnJobDone = func(i int, w string) {
		ch.done.Add(1)
		if prev != nil {
			prev(i, w)
		}
	}
	if opts.Logf == nil {
		opts.Logf = t.Logf
	}
	ch.opts = opts
	ch.h = NewHub(opts)
	t.Cleanup(func() {
		ch.releaseRuns() // never leave gated executor goroutines wedged
		ch.h.Close()
	})
	return ch
}

// holdRuns arms the run gate: every worker Run entered from here on
// blocks until releaseRuns. With runStarts this pins the hub in a
// provable mid-job state — the only way a scenario can assert
// scheduling effects (concurrent admission, handoffs) without racing
// the fleet.
func (ch *chaosHarness) holdRuns() {
	ch.gateMu.Lock()
	if ch.gate == nil {
		ch.gate = make(chan struct{})
	}
	ch.gateMu.Unlock()
}

func (ch *chaosHarness) releaseRuns() {
	ch.gateMu.Lock()
	if ch.gate != nil {
		close(ch.gate)
		ch.gate = nil
	}
	ch.gateMu.Unlock()
}

func (ch *chaosHarness) gatedRun(JobSpec) {
	ch.runStarts.Add(1)
	ch.gateMu.Lock()
	g := ch.gate
	ch.gateMu.Unlock()
	if g != nil {
		<-g
	}
}

// joinWorker registers a fresh in-process worker; its transport can be
// crashed later by name.
func (ch *chaosHarness) joinWorker(name string) {
	ch.t.Helper()
	r := newFakeRunner()
	r.onRun = ch.gatedRun
	hubSide, workerSide := net.Pipe()
	go Serve(workerSide, r)
	if err := ch.h.AddWorker(name, hubSide); err != nil {
		ch.t.Fatal(err)
	}
	var once sync.Once
	ch.mu.Lock()
	ch.kills[name] = func() { once.Do(func() { workerSide.Close() }) }
	ch.mu.Unlock()
}

func (ch *chaosHarness) crashWorker(name string) {
	ch.t.Helper()
	ch.mu.Lock()
	kill := ch.kills[name]
	ch.mu.Unlock()
	if kill == nil {
		ch.t.Fatalf("chaos script crashes unknown worker %q", name)
	}
	kill()
}

// client returns (creating on first use) a framed HubClient speaking
// the real handshake path, plus registers its raw connection for
// dropClient.
func (ch *chaosHarness) client(name string) *HubClient {
	ch.t.Helper()
	ch.mu.Lock()
	defer ch.mu.Unlock()
	if c := ch.clients[name]; c != nil {
		return c
	}
	hubSide, clientSide := net.Pipe()
	go ch.h.HandleConn(hubSide)
	c, err := NewHubClient(clientSide, name)
	if err != nil {
		ch.t.Fatal(err)
	}
	ch.clients[name] = c
	ch.conns[name] = clientSide
	return c
}

func (ch *chaosHarness) dropClient(name string) {
	ch.t.Helper()
	ch.mu.Lock()
	conn := ch.conns[name]
	ch.mu.Unlock()
	if conn == nil {
		ch.t.Fatalf("chaos script drops unknown client %q", name)
	}
	conn.Close()
}

// prepare builds one scripted submission's inputs and its local
// reference without submitting it. Scenarios prepare every submission
// before the first submit: computing a reference between two submits
// gives the earlier one time to finish before the later one is
// enqueued, which a scenario asserting queue depths cannot allow.
func (ch *chaosHarness) prepare(cs *chaosSubmit) *chaosSubmission {
	ch.t.Helper()
	sub := &chaosSubmission{
		name: cs.name,
		via:  cs.via,
		base: testAIG(cs.seed),
		cfg:  testConfig(),
		jobs: testJobs(cs.jobs),
		outc: make(chan chaosOutcome, 1),
	}
	sub.want = reference(ch.t, sub.base, sub.cfg, sub.jobs)
	return sub
}

// submit enqueues a prepared submission and starts the goroutine
// collecting its outcome.
func (ch *chaosHarness) submit(sub *chaosSubmission) {
	ch.t.Helper()
	if sub.via == "" {
		hs, err := ch.h.Submit([]*aig.AIG{sub.base}, sub.cfg, sub.jobs)
		if err != nil {
			ch.t.Fatal(err)
		}
		go func() {
			results, st, err := hs.Wait()
			sub.outc <- chaosOutcome{results, st, err}
		}()
	} else {
		c := ch.client(sub.via)
		go func() {
			results, st, err := c.Submit([]*aig.AIG{sub.base}, sub.cfg, sub.jobs)
			sub.outc <- chaosOutcome{results, st, err}
		}()
	}
	ch.mu.Lock()
	ch.subs = append(ch.subs, sub)
	ch.mu.Unlock()
}

// waitDone blocks until the hub-wide merged-job counter reaches n.
func (ch *chaosHarness) waitDone(n int64) {
	ch.t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for ch.done.Load() < n {
		if time.Now().After(deadline) {
			ch.t.Fatalf("chaos clock stalled at %d merged jobs waiting for %d", ch.done.Load(), n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// play applies a script in order, releasing each step at its merged-job
// threshold.
func (ch *chaosHarness) play(steps []chaosStep) {
	ch.t.Helper()
	for _, s := range steps {
		ch.waitDone(s.after)
		switch {
		case s.join != "":
			ch.joinWorker(s.join)
		case s.crash != "":
			ch.crashWorker(s.crash)
		case s.dropClient != "":
			ch.dropClient(s.dropClient)
		case s.submit != nil:
			ch.submit(s.submit)
		default:
			ch.t.Fatal("chaos step with no action")
		}
	}
}

// activeCount reads the hub's live session count — the scenario-side
// probe for concurrent admission.
func (ch *chaosHarness) activeCount() int {
	ch.h.mu.Lock()
	defer ch.h.mu.Unlock()
	return len(ch.h.active)
}

// queuedCount reads the hub's waiting-submission count.
func (ch *chaosHarness) queuedCount() int {
	ch.h.mu.Lock()
	defer ch.h.mu.Unlock()
	return len(ch.h.queue)
}

// waitOutcome collects one submission's outcome with a deadline.
// Idempotent: the outcome channel fires once, later calls return the
// cached result (scenarios probe outcomes before verify re-checks
// them). Only the test goroutine calls it, so no locking.
func (ch *chaosHarness) waitOutcome(sub *chaosSubmission) chaosOutcome {
	ch.t.Helper()
	if sub.resolved {
		return sub.got
	}
	select {
	case out := <-sub.outc:
		sub.got = out
		sub.resolved = true
		return out
	case <-time.After(60 * time.Second):
		ch.t.Fatalf("submission %q never resolved", sub.name)
		return chaosOutcome{}
	}
}

// verify is the scenario epilogue: every submission resolves, and each
// one's results are byte-identical to its local reference — whatever
// the partition plan and the fleet churn did in between. Submissions
// whose client was dropped must instead fail client-side.
func (ch *chaosHarness) verify() {
	ch.t.Helper()
	ch.mu.Lock()
	subs := append([]*chaosSubmission(nil), ch.subs...)
	ch.mu.Unlock()
	for _, sub := range subs {
		out := ch.waitOutcome(sub)
		if sub.expectErr {
			if out.err == nil {
				ch.t.Fatalf("submission %q succeeded despite its client disconnecting", sub.name)
			}
			continue
		}
		if out.err != nil {
			ch.t.Fatalf("submission %q: %v", sub.name, out.err)
		}
		ch.assertIdentity(sub.name, out.results, sub.want)
	}
}

func (ch *chaosHarness) assertIdentity(name string, got []JobResult, want []*WorkResult) {
	ch.t.Helper()
	if len(got) != len(want) {
		ch.t.Fatalf("submission %q returned %d results, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i].TrueDelayPS != want[i].TrueDelayPS || got[i].TrueAreaUM2 != want[i].TrueAreaUM2 {
			ch.t.Fatalf("submission %q job %d true metrics differ", name, i)
		}
		if err := sameResult(got[i].Result, want[i].Result); err != nil {
			ch.t.Fatalf("submission %q job %d: %v", name, i, err)
		}
	}
}

// verifySerialHub reruns every (non-dropped) submission through a
// fresh serial hub — MaxSessions 1, a single steady worker — and
// asserts each result set matches what the chaos run produced: the
// concurrent partitioned execution and the serial one are the same
// function.
func (ch *chaosHarness) verifySerialHub() {
	ch.t.Helper()
	h := NewHub(HubOptions{MaxSessions: 1, Preseed: ch.opts.Preseed, Logf: ch.t.Logf})
	defer h.Close()
	r := newFakeRunner()
	hubSide, workerSide := net.Pipe()
	go Serve(workerSide, r)
	if err := h.AddWorker("serial", hubSide); err != nil {
		ch.t.Fatal(err)
	}
	ch.mu.Lock()
	subs := append([]*chaosSubmission(nil), ch.subs...)
	ch.mu.Unlock()
	for _, sub := range subs {
		if sub.expectErr {
			continue
		}
		hs, err := h.Submit([]*aig.AIG{sub.base}, sub.cfg, sub.jobs)
		if err != nil {
			ch.t.Fatal(err)
		}
		results, _, err := hs.Wait()
		if err != nil {
			ch.t.Fatalf("serial-hub rerun of %q: %v", sub.name, err)
		}
		for i := range results {
			if err := sameResult(results[i].Result, sub.got.results[i].Result); err != nil {
				ch.t.Fatalf("submission %q job %d: serial hub and concurrent hub differ: %v", sub.name, i, err)
			}
		}
	}
}

// ---- scenarios ----

// TestChaosSerialQueueUnderChurn re-expresses the PR 8 chaos shape on
// the harness: a serial hub (MaxSessions: 1) executing two queued
// submissions while the fleet churns — a worker joins late, the
// original dies mid-job, a replacement registers. Byte-identity for
// both submissions, no rebalance handoffs (a serial hub never
// partitions), and the second submission saw one submission ahead.
func TestChaosSerialQueueUnderChurn(t *testing.T) {
	ch := newChaosHarness(t, HubOptions{MaxSessions: 1, Preseed: true})
	ch.joinWorker("w1")
	a := ch.prepare(&chaosSubmit{name: "A", seed: 81, jobs: 6})
	b := ch.prepare(&chaosSubmit{name: "B", seed: 82, jobs: 4})
	ch.submit(a)
	ch.submit(b)
	ch.play([]chaosStep{
		{after: 1, join: "w2"},
		{after: 3, crash: "w1"},
		{after: 3, join: "w3"},
	})
	ch.verify()
	if a.got.st.Handoffs != 0 || b.got.st.Handoffs != 0 {
		t.Fatalf("serial hub recorded handoffs: A=%d B=%d", a.got.st.Handoffs, b.got.st.Handoffs)
	}
	if a.got.st.QueueDepth != 0 || b.got.st.QueueDepth != 1 {
		t.Fatalf("queue depths = %d/%d, want 0/1", a.got.st.QueueDepth, b.got.st.QueueDepth)
	}
}

// TestChaosConcurrentSessionsUnderChurn is the partitioning acceptance
// scenario: two submissions provably running concurrently (the run
// gate pins the first fleet-wide mid-job while the second is admitted)
// under worker churn — a rebalance handoff donates a worker from the
// older session to the younger, a worker crashes mid-job, a late
// joiner replaces it. Every result must be byte-identical to the local
// reference and to a serial-hub rerun, and the older session must have
// recorded the handoff.
func TestChaosConcurrentSessionsUnderChurn(t *testing.T) {
	ch := newChaosHarness(t, HubOptions{MaxSessions: 3, Preseed: true})
	ch.joinWorker("w1")
	ch.joinWorker("w2")

	// Pin both workers inside session A's first two jobs, then admit B:
	// the plan must split the fleet [1,1], forcing A to donate a worker
	// at its next job boundary.
	a := ch.prepare(&chaosSubmit{name: "A", seed: 83, jobs: 8})
	b := ch.prepare(&chaosSubmit{name: "B", seed: 84, jobs: 4})
	ch.holdRuns()
	ch.submit(a)
	waitFor(t, "both workers mid-job in A", func() bool { return ch.runStarts.Load() >= 2 })
	ch.submit(b)
	if n := ch.activeCount(); n != 2 {
		t.Fatalf("active sessions = %d after concurrent admission, want 2", n)
	}
	ch.releaseRuns()

	ch.play([]chaosStep{
		{after: 3, crash: "w2"}, // mid-job crash under the split fleet
		{after: 5, join: "w3"},  // late joiner restores two partitions
	})
	ch.verify()
	ch.verifySerialHub()
	if a.got.st.Handoffs < 1 {
		t.Fatalf("older session recorded %d handoffs, want >= 1 (it held the whole fleet when B was admitted)", a.got.st.Handoffs)
	}
	if b.got.st.QueueDepth != 1 {
		t.Fatalf("B's queue depth = %d, want 1 (A was active at enqueue)", b.got.st.QueueDepth)
	}
}

// TestChaosClientDisconnectMidRun drops a framed client while its
// submission is provably mid-job: the hub-side session runs to
// completion anyway (its jobs keep merging), the client-side submit
// fails, and a second submission on the surviving hub is
// byte-identical to its reference.
func TestChaosClientDisconnectMidRun(t *testing.T) {
	ch := newChaosHarness(t, HubOptions{MaxSessions: 2, Preseed: true})
	ch.joinWorker("w1")
	a := ch.prepare(&chaosSubmit{name: "A", seed: 85, jobs: 6, via: "c1"})
	a.expectErr = true
	b := ch.prepare(&chaosSubmit{name: "B", seed: 86, jobs: 4})
	ch.holdRuns()
	ch.submit(a)
	waitFor(t, "A mid-job", func() bool { return ch.runStarts.Load() >= 1 })
	ch.dropClient("c1")
	ch.submit(b)
	ch.releaseRuns()
	// The orphaned session still merges every job: the hub owes the
	// fleet a clean session boundary whether or not anyone is listening.
	ch.waitDone(int64(len(a.jobs) + len(b.jobs)))
	ch.verify()
	if b.got.err != nil {
		t.Fatalf("survivor submission failed: %v", b.got.err)
	}
}

var _ = fmt.Sprintf // keep fmt imported for scenario debugging helpers
