package shard

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"aigtimer/internal/aig"
)

// Tests for the partition scheduler: the pure plan (planPartitions,
// canAdmit) property-tested over random inputs, the hub's applied plan
// checked against the scheduler invariants after every event of 50+
// random submission/fleet-churn schedules, and the one-rebalance-tick
// admission guarantee pinned down without sleeps. The random tests log
// their seeds so a CI failure reproduces exactly.

// TestPlanPartitionsInvariants property-tests the pure plan over random
// (fleet, sessions, minPer) triples.
func TestPlanPartitionsInvariants(t *testing.T) {
	const seed = 1
	t.Logf("plan property seed %d", seed)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 500; i++ {
		fleet, sessions, minPer := rng.Intn(13), rng.Intn(7), rng.Intn(4)
		mp := minPer
		if mp < 1 {
			mp = 1
		}
		got := planPartitions(fleet, sessions, minPer)
		label := fmt.Sprintf("planPartitions(%d, %d, %d) = %v", fleet, sessions, minPer, got)
		if len(got) != sessions {
			t.Fatalf("%s: wrong length", label)
		}
		sum := 0
		for _, n := range got {
			sum += n
		}
		// The whole fleet is always spoken for: partitions are disjoint
		// and nothing idles while a session is running.
		if sessions > 0 && sum != fleet {
			t.Fatalf("%s: targets sum to %d, fleet is %d", label, sum, fleet)
		}
		for j := 1; j < len(got); j++ {
			// Proportional share by queue age: never give a younger
			// submission more than an older one.
			if got[j] > got[j-1] {
				t.Fatalf("%s: younger session out-provisioned an older one", label)
			}
			// Below-floor shares exist only for the oldest session (when
			// the whole fleet is below the floor); everyone else gets the
			// floor or waits at zero.
			if got[j] != 0 && got[j] < mp {
				t.Fatalf("%s: session %d holds %d workers, below the floor %d", label, j, got[j], mp)
			}
		}
		if fleet >= sessions*mp && sessions > 0 {
			for j, n := range got {
				// Abundance: no starvation, everyone at or above the floor.
				if n < mp {
					t.Fatalf("%s: session %d starved in abundance", label, j)
				}
				// Fairness: an equal split never spreads more than one
				// worker apart.
				if got[0]-n > 1 {
					t.Fatalf("%s: spread %d exceeds 1 in abundance", label, got[0]-n)
				}
				_ = j
			}
		}
	}
}

// TestCanAdmit pins the admission rule's edges.
func TestCanAdmit(t *testing.T) {
	cases := []struct {
		fleet, active, max, minPer int
		want                       bool
	}{
		{0, 0, 1, 1, true},  // first submission always starts, even fleetless
		{0, 0, 4, 3, true},  // ... whatever the floor
		{5, 4, 4, 1, false}, // session cap
		{1, 1, 4, 1, false}, // floor unmet after split
		{2, 1, 4, 1, true},  // floor met
		{3, 1, 4, 2, false}, // floor 2 needs 4 workers for 2 sessions
		{4, 1, 4, 2, true},
		{9, 2, 4, 3, true},
		{8, 2, 4, 3, false},
		{2, 1, 1, 1, false}, // MaxSessions 1 is the serial hub
	}
	for _, c := range cases {
		if got := canAdmit(c.fleet, c.active, c.max, c.minPer); got != c.want {
			t.Fatalf("canAdmit(%d, %d, %d, %d) = %v, want %v", c.fleet, c.active, c.max, c.minPer, got, c.want)
		}
	}
}

// assertPartitionInvariants forces one rebalance tick and then checks
// the hub's applied state against the scheduler invariants: sessions
// ordered by age, targets exactly the plan for the current fleet,
// partitions disjoint from each other and from the idle pool, and no
// runnable session starved while another exceeds the plan. Because
// scheduleLocked is idempotent, running it first resolves any
// transient state from asynchronous worker-death notices — this is
// the "within one rebalance tick" clause of the fairness contract.
func assertPartitionInvariants(t *testing.T, h *Hub) {
	t.Helper()
	h.mu.Lock()
	defer h.mu.Unlock()
	h.scheduleLocked()
	want := planPartitions(h.fleetLocked(), len(h.active), h.minPer)
	owner := map[*wireWorker]string{}
	for _, w := range h.idle {
		owner[w] = "idle"
	}
	prevSeq := -1
	for i, as := range h.active {
		if as.seq <= prevSeq {
			t.Fatalf("active sessions out of admission order at index %d", i)
		}
		prevSeq = as.seq
		if as.target != want[i] {
			t.Fatalf("session #%d target = %d after a rebalance tick, plan says %d (fleet %d, %d sessions)",
				as.seq, as.target, want[i], h.fleetLocked(), len(h.active))
		}
		for w := range as.assigned {
			if prev, ok := owner[w]; ok {
				t.Fatalf("worker %s owned twice: %s and session #%d", w.name, prev, as.seq)
			}
			owner[w] = fmt.Sprintf("session #%d", as.seq)
		}
		// A session over target sheds at job boundaries (asynchronously),
		// but never grows past it at attach time; and with idle workers
		// available no runnable session may sit under target after a
		// tick. A session that already finished (but whose completion
		// path has not yet removed it from the active set) refuses
		// attaches by design — its removal is the next tick.
		as.s.mu.Lock()
		finished := as.s.finished
		as.s.mu.Unlock()
		if !finished && len(as.assigned) < as.target && len(h.idle) > 0 {
			t.Fatalf("session #%d under target (%d/%d) with %d idle workers after a rebalance tick",
				as.seq, len(as.assigned), as.target, len(h.idle))
		}
	}
}

// TestHubPartitionInvariantsUnderRandomSchedules is the fairness
// property test: 50 random submission/fleet-churn schedules, with the
// scheduler invariants asserted after every event and byte-identity
// for every submission at the end. A failure log starts with the
// schedule seed.
func TestHubPartitionInvariantsUnderRandomSchedules(t *testing.T) {
	const schedules = 50
	// References are memoized across schedules: submissions draw from a
	// small pool of (base seed, job count) shapes.
	type shape struct {
		seed int64
		jobs int
	}
	refs := map[shape][]*WorkResult{}
	ref := func(s shape, base *aig.AIG, cfg RunConfig, jobs []JobSpec) []*WorkResult {
		if r, ok := refs[s]; ok {
			return r
		}
		r := reference(t, base, cfg, jobs)
		refs[s] = r
		return r
	}

	for sc := 0; sc < schedules; sc++ {
		seed := int64(2000 + sc)
		t.Logf("chaos schedule seed %d", seed)
		rng := rand.New(rand.NewSource(seed))
		h := NewHub(HubOptions{
			MaxSessions:          1 + rng.Intn(3),
			MinWorkersPerSession: 1 + rng.Intn(2),
			Preseed:              rng.Intn(2) == 0,
		})
		var kills []func()
		workerN := 0
		join := func() {
			workerN++
			name := fmt.Sprintf("s%d-w%d", seed, workerN)
			r := newFakeRunner()
			k := pipeWorker(t, h, name, r)
			kills = append(kills, k)
		}
		type pendingSub struct {
			sub  *Submission
			want []*WorkResult
		}
		var pendings []pendingSub
		submit := func() {
			s := shape{seed: 70 + int64(rng.Intn(3)), jobs: 2 + rng.Intn(3)}
			base, cfg, jobs := testAIG(s.seed), testConfig(), testJobs(s.jobs)
			want := ref(s, base, cfg, jobs)
			sub, err := h.Submit([]*aig.AIG{base}, cfg, jobs)
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			pendings = append(pendings, pendingSub{sub, want})
		}

		events := 5 + rng.Intn(5)
		for e := 0; e < events; e++ {
			switch rng.Intn(3) {
			case 0:
				join()
			case 1:
				if len(kills) > 0 {
					i := rng.Intn(len(kills))
					kills[i]()
					kills = append(kills[:i], kills[i+1:]...)
				} else {
					join()
				}
			case 2:
				if len(pendings) < 3 {
					submit()
				} else {
					join()
				}
			}
			assertPartitionInvariants(t, h)
		}
		if len(pendings) == 0 {
			submit()
			assertPartitionInvariants(t, h)
		}
		// A rescue worker guarantees forward progress: elastic sessions
		// whose fleet died wait rather than fail, and the queue drains
		// through whatever the churn left alive.
		join()
		assertPartitionInvariants(t, h)

		for i, p := range pendings {
			results, _, err := waitSubmission(t, p.sub, fmt.Sprintf("seed %d submission %d", seed, i))
			if err != nil {
				t.Fatalf("seed %d submission %d: %v", seed, i, err)
			}
			for j := range p.want {
				if err := sameResult(results[j].Result, p.want[j].Result); err != nil {
					t.Fatalf("seed %d submission %d job %d: %v", seed, i, j, err)
				}
			}
		}
		assertPartitionInvariants(t, h)
		h.Close()
	}
}

// waitSubmission resolves a submission with a deadline, so a starved
// schedule fails the test instead of wedging it.
func waitSubmission(t *testing.T, sub *Submission, what string) ([]JobResult, *Stats, error) {
	t.Helper()
	done := make(chan struct{})
	var (
		results []JobResult
		st      *Stats
		err     error
	)
	go func() {
		results, st, err = sub.Wait()
		close(done)
	}()
	select {
	case <-done:
		return results, st, err
	case <-time.After(60 * time.Second):
		t.Fatalf("%s starved: submission never resolved", what)
		return nil, nil, nil
	}
}

// TestHubQueuedSubmissionStartsWithinOneTick pins the admission
// latency contract on the worker-registration path: a submission
// queued for lack of fleet must be active by the time AddWorker
// returns for the worker that makes the floor reachable — the
// registration IS the rebalance tick.
func TestHubQueuedSubmissionStartsWithinOneTick(t *testing.T) {
	ch := newChaosHarness(t, HubOptions{MaxSessions: 2})
	ch.joinWorker("w1")
	a := ch.prepare(&chaosSubmit{name: "A", seed: 91, jobs: 3})
	b := ch.prepare(&chaosSubmit{name: "B", seed: 92, jobs: 2})
	ch.holdRuns()
	ch.submit(a)
	ch.submit(b)
	if n, q := ch.activeCount(), ch.queuedCount(); n != 1 || q != 1 {
		t.Fatalf("active/queued = %d/%d with a 1-worker fleet, want 1/1", n, q)
	}
	ch.joinWorker("w2")
	if n, q := ch.activeCount(), ch.queuedCount(); n != 2 || q != 0 {
		t.Fatalf("active/queued = %d/%d after the unlocking registration, want 2/0", n, q)
	}
	ch.releaseRuns()
	ch.verify()
	if b.got.st.QueueDepth != 1 {
		t.Fatalf("B queue depth = %d, want 1", b.got.st.QueueDepth)
	}
}

// TestHubQueuedSubmissionStartsOnSessionEnd pins the same contract on
// the session-completion path: the moment the first submission's Wait
// returns, the queued one is already admitted — completion schedules
// before it resolves the waiter.
func TestHubQueuedSubmissionStartsOnSessionEnd(t *testing.T) {
	ch := newChaosHarness(t, HubOptions{MaxSessions: 1})
	ch.joinWorker("w1")
	a := ch.prepare(&chaosSubmit{name: "A", seed: 93, jobs: 3})
	b := ch.prepare(&chaosSubmit{name: "B", seed: 94, jobs: 2})
	ch.submit(a)
	ch.submit(b)
	ch.waitOutcome(a)
	if q := ch.queuedCount(); q != 0 {
		t.Fatalf("B still queued after A resolved; admission missed the session-end tick")
	}
	ch.verify()
	_ = b
}
