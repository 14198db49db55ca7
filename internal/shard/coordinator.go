package shard

import (
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/eval"
)

// Options configures a coordinator run. Workers are given either as
// established transports (Conns — in-process loopbacks, tests) or as
// TCP endpoints of sweepd daemons (Endpoints); both may be combined.
type Options struct {
	Conns     []io.ReadWriteCloser
	Endpoints []string
	// MaxAttempts bounds how often one job is executed after worker-side
	// errors before the sweep reports it failed (transport losses always
	// requeue and do not consume attempts). 0 means 3.
	MaxAttempts int
	// DialTimeout bounds each endpoint dial; 0 means 10s.
	DialTimeout time.Duration
	// JobTimeout bounds how long the coordinator waits for one job's
	// result on transports supporting read deadlines (net.Conn); on
	// expiry the worker counts as lost and its job is requeued. 0 means
	// no bound — dialed TCP conns still detect silently dead peers via
	// keepalive probes, but a worker wedged mid-computation holds its
	// job until the sweep is cancelled, so set this when job durations
	// are predictable.
	JobTimeout time.Duration
	// OnJobDone, when set, is invoked after each job's result has been
	// decoded and merged (with the job's session index and the name of
	// the worker that computed it) — a progress hook for UIs and tests.
	// It may be called concurrently from several worker goroutines.
	OnJobDone func(jobIndex int, worker string)
	// Preseed pushes merged cache records back out to workers mid-sweep:
	// the moment a result's fresh records merge, every other attached
	// worker that has not seen them receives a push, installed behind the
	// worker cache's prefilter (eval.Cached.ImportRecords). Pushes ride
	// the connection's independent writer, overtaking queued job
	// dispatches, so a worker imports them before its next job — mid-job
	// when it is busy. Results are unchanged — the prefilter only skips
	// oracle work — but cross-worker duplicate evaluations
	// (Stats.CacheDuplicates) drop.
	Preseed bool
	// Store, when set, makes the run's merged knowledge durable: before
	// dispatching, the coordinator loads the store's records for every
	// session entry — keyed by eval.StoreKey, the (base-graph hash,
	// evaluator-spec hash) pair — into the merged caches, where the
	// preseed path pushes them to each worker at admission (setting
	// Store implies Preseed). Newly merged records are flushed back on a
	// periodic ticker and once more when the run ends. Preseeded records
	// pass through the worker caches' ImportRecords prefilter, so a warm
	// start may only skip oracle calls, never change a result.
	Store *eval.Store
	// StoreFlushEvery is the period of the mid-run store flush ticker;
	// 0 means 30s. Flushes are idempotent (the store deduplicates by
	// record identity), so the cadence only bounds how much merged work
	// a coordinator crash can lose, never what a restart recovers into.
	StoreFlushEvery time.Duration
	// Logf, when set, receives progress and failure events.
	Logf func(format string, args ...any)
}

// WorkerStats is the per-worker slice of a run's accounting.
type WorkerStats struct {
	Name string // endpoint address, or "conn#i" for pre-established transports
	Jobs int    // results this worker delivered
	Lost bool   // session ended by a transport failure

	// Session-cumulative preseed counters reported by the worker with
	// its last result: oracle evaluations skipped by pushed records, and
	// pushed records rejected as witnessed fingerprint collisions.
	PrefilterHits     int64
	PrefilterRejected int64
}

// Stats is the coordinator's accounting of one run: the transfer split
// the warm-handoff design is judged by (one send per base per worker,
// delta records for everything else), the retry/work-stealing activity,
// the cluster-wide memo-cache merge, and the preseed traffic.
type Stats struct {
	BaseSends    int   // base-graph transfers (bases × worker admissions)
	BaseBytes    int64 // bytes of those transfers
	DeltaRecords int   // graphs received as delta records
	DeltaBytes   int64 // bytes of those records
	JobSends     int   // job dispatches, including re-dispatches
	Retries      int   // re-dispatches after a worker-side job error
	Requeues     int   // re-dispatches after a transport loss
	WorkerLosses int   // worker sessions lost mid-sweep

	// Hub scheduling accounting (zero for one-shot Run sessions).
	// Handoffs counts workers this session donated to a concurrent
	// submission mid-run: the partition scheduler shrank its target, a
	// worker withdrew at a job boundary, and the hub re-admitted it
	// elsewhere with a warm-start replay. QueueDepth is how many
	// submissions (active or queued) were ahead of this one when it was
	// enqueued — the client-visible measure of hub contention.
	Handoffs   int
	QueueDepth int

	BytesSent     int64 // total transport bytes, coordinator -> workers
	BytesReceived int64 // total transport bytes, workers -> coordinator

	// MergedCaches is the cluster-wide memo view, one map (structure
	// identity, eval.CacheKey -> metrics) per session entry — metrics
	// from different guiding evaluators are not interchangeable, so
	// records never merge across entries. CacheRecords counts all
	// records received; CacheDuplicates counts records whose structure
	// another worker had already contributed to the same entry — the
	// measure of cross-shard redundant evaluation that Options.Preseed
	// recovers.
	MergedCaches    []map[eval.CacheKey]eval.Metrics
	CacheRecords    int
	CacheDuplicates int

	// Preseed traffic: pushes sent, records they carried, and their
	// payload bytes (also included in BytesSent).
	SeedPushes  int
	SeedRecords int
	SeedBytes   int64

	// Fleet-wide preseed effect, summed over WorkerStats.
	PrefilterHits     int64
	PrefilterRejected int64

	// Persistent-store traffic: records Options.Store contributed to the
	// merged caches before dispatch (the warm start), and records this
	// run newly flushed to it (mid-run ticker flushes included; the
	// store's deduplication keeps re-flushes free).
	StoreLoaded  int
	StoreFlushed int

	// Workers is indexed by admission order; on a hub session late
	// joiners and rejoining workers append new entries.
	Workers []WorkerStats
}

// MergedStructures returns the number of distinct evaluated structures
// across all entries' merged caches.
func (s *Stats) MergedStructures() int {
	n := 0
	for _, m := range s.MergedCaches {
		n += len(m)
	}
	return n
}

// JobFailedError reports a job whose execution attempts were exhausted;
// callers (flows.SweepSharded) translate it into their own coordinate-
// carrying error type.
type JobFailedError struct {
	Job      JobSpec
	Attempts int
	Msg      string
}

// Error implements error.
func (e *JobFailedError) Error() string {
	return fmt.Sprintf("shard: job %d of entry %d (w_delay=%g w_area=%g decay=%g) failed after %d attempts: %s",
		e.Job.Index, e.Job.Entry, e.Job.DelayWeight, e.Job.AreaWeight, e.Job.Decay, e.Attempts, e.Msg)
}

// task is one schedulable job plus its retry state.
type task struct {
	job      JobSpec
	attempts int          // worker-side execution failures so far
	exclude  map[int]bool // workers this job should avoid (they failed it)
}

// sched is a session's work queue: pull-based (idle workers take the
// next eligible job, so fast workers naturally steal load) with
// requeue-on-failure. Workers join the live set at any time
// (addWorker), which is what lets a hub admit late joiners mid-sweep —
// and leave it voluntarily when the session's partition target shrinks
// (setTarget), which is what lets a hub move workers between
// concurrent sessions without killing connections.
type sched struct {
	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*task
	remaining int          // jobs not yet completed or abandoned
	alive     map[int]bool // worker id -> still serving
	target    int          // partition size this session may hold; -1 = unlimited
	aborted   bool
}

func newSched(jobs []JobSpec) *sched {
	s := &sched{alive: make(map[int]bool), remaining: len(jobs), target: -1}
	s.cond = sync.NewCond(&s.mu)
	for _, j := range jobs {
		s.queue = append(s.queue, &task{job: j})
	}
	return s
}

// addWorker admits worker id to the live set.
func (s *sched) addWorker(id int) {
	s.mu.Lock()
	s.alive[id] = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// setTarget bounds how many workers this session may keep (-1 =
// unlimited). When the live set exceeds the target, surplus workers
// withdraw themselves at their next job boundary (next returns
// nextWithdrawn) — the withdrawing worker is idle by definition, so no
// job ever needs requeueing for a rebalance.
func (s *sched) setTarget(n int) {
	s.mu.Lock()
	s.target = n
	s.mu.Unlock()
	s.cond.Broadcast()
}

// eligible reports whether worker id may take t: it must not be
// excluded, unless every live worker is (then retrying anywhere beats
// deadlocking).
func (s *sched) eligible(t *task, id int) bool {
	if !t.exclude[id] {
		return true
	}
	for w, ok := range s.alive {
		if ok && !t.exclude[w] {
			return false
		}
	}
	return true
}

// nextOutcome is next's verdict for one pull.
type nextOutcome int

const (
	// nextJob: the returned task is the worker's next job.
	nextJob nextOutcome = iota
	// nextDone: no work will ever remain (every job resolved, or the
	// session aborted); the worker should leave the session.
	nextDone
	// nextWithdrawn: the session holds more workers than its partition
	// target allows, and this worker — idle at a job boundary — parked
	// itself to be handed to another session. It has already left the
	// live set and its exclusion entries are pruned, exactly as if it
	// had died, but its connection is healthy.
	nextWithdrawn
)

// drained reports whether no work will ever remain: every job resolved,
// or the session aborted.
func (s *sched) drained() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainedLocked()
}

func (s *sched) drainedLocked() bool { return s.remaining == 0 || s.aborted }

// next blocks until a job is available for worker id (nextJob), no
// work will ever remain (nextDone), or the worker withdraws to honor a
// shrunken partition target (nextWithdrawn).
func (s *sched) next(id int) (*task, nextOutcome) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.drainedLocked() {
			return nil, nextDone
		}
		if s.target >= 0 && len(s.alive) > s.target && s.alive[id] {
			// Surplus under the current target: withdraw. Pruning this
			// id's exclusions mirrors workerDead — the id may be recycled
			// by a later admission (here or elsewhere), and a recycled id
			// must not inherit its predecessor's exclusions.
			delete(s.alive, id)
			for _, t := range s.queue {
				delete(t.exclude, id)
			}
			s.cond.Broadcast()
			return nil, nextWithdrawn
		}
		for i, t := range s.queue {
			if s.eligible(t, id) {
				s.queue = append(s.queue[:i], s.queue[i+1:]...)
				return t, nextJob
			}
		}
		s.cond.Wait()
	}
}

// complete marks one job finished (successfully or abandoned) and
// returns how many remain.
func (s *sched) complete() int {
	s.mu.Lock()
	s.remaining--
	n := s.remaining
	s.mu.Unlock()
	s.cond.Broadcast()
	return n
}

// requeue puts a dispatched task back, optionally excluding the worker
// that just failed it. Exclusions referring to workers no longer alive
// are pruned here as well: under churn (hub fleets, recycled ids) a
// stale entry would both leak and skew eligible's every-live-worker-
// excluded fallback.
func (s *sched) requeue(t *task, excludeWorker int) {
	s.mu.Lock()
	if excludeWorker >= 0 {
		if t.exclude == nil {
			t.exclude = make(map[int]bool)
		}
		t.exclude[excludeWorker] = true
	}
	for id := range t.exclude {
		if !s.alive[id] {
			delete(t.exclude, id)
		}
	}
	s.queue = append(s.queue, t)
	s.mu.Unlock()
	s.cond.Broadcast()
}

// workerDead removes a worker from the live set, prunes its exclusion
// entries from every queued task (a dead worker can never be retried
// on, and a recycled id must not inherit its predecessor's
// exclusions), and reports what remains: live workers and unresolved
// jobs.
func (s *sched) workerDead(id int) (remainingWorkers, remainingJobs int) {
	s.mu.Lock()
	delete(s.alive, id)
	for _, t := range s.queue {
		delete(t.exclude, id)
	}
	rw, rj := len(s.alive), s.remaining
	s.mu.Unlock()
	s.cond.Broadcast()
	return rw, rj
}

// abort wakes every waiter with no work; next returns !ok from here on.
func (s *sched) abort() {
	s.mu.Lock()
	s.aborted = true
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Run executes the session's jobs across the optioned workers and
// merges their results deterministically: the returned slice is indexed
// in the order of the jobs argument regardless of which worker computed
// what, and — because every job is executed at the same parameters over
// value-transparent evaluation stacks — its contents match a local
// execution of the same jobs bit for bit (preseeding included: a pushed
// record only ever skips an oracle call whose result it already is).
//
// Every base graph is shipped once per worker session, immediately
// after the config; every graph coming back travels as an
// aig.EncodeDelta record against its job's base (warm handoff). Each
// connection runs an independent reader and writer goroutine, so seed
// pushes and result uploads overlap job execution. Workers pull jobs
// one at a time, so load balance emerges from speed (work stealing); a
// lost worker's in-flight job is requeued elsewhere, and a job a worker
// reports failed is retried on other workers up to MaxAttempts before
// the run reports a JobFailedError. Like the local sweep, Run finishes
// every finishable job before returning the first failure in job order.
func Run(bases []*aig.AIG, cfg RunConfig, jobs []JobSpec, opts Options) ([]JobResult, *Stats, error) {
	logf := opts.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if _, err := validateRun(bases, cfg, jobs); err != nil {
		return nil, nil, err
	}

	type workerConn struct {
		name string
		rwc  io.ReadWriteCloser
	}
	var conns []workerConn
	for i, c := range opts.Conns {
		conns = append(conns, workerConn{name: fmt.Sprintf("conn#%d", i), rwc: c})
	}
	dialTimeout := opts.DialTimeout
	if dialTimeout == 0 {
		dialTimeout = 10 * time.Second
	}
	// Keepalive probes are what turn a silently dead peer (power loss,
	// partition — no FIN/RST) into a read error the requeue logic can
	// act on; without them a half-open connection would hold its job
	// forever.
	dialer := net.Dialer{Timeout: dialTimeout, KeepAlive: 15 * time.Second}
	for _, ep := range opts.Endpoints {
		c, err := dialer.Dial("tcp", ep)
		if err != nil {
			for _, wc := range conns {
				wc.rwc.Close()
			}
			return nil, nil, fmt.Errorf("shard: dialing worker %s: %w", ep, err)
		}
		conns = append(conns, workerConn{name: ep, rwc: c})
	}
	if len(conns) == 0 {
		return nil, nil, fmt.Errorf("shard: no workers (need Conns or Endpoints)")
	}

	s, err := newSession(bases, cfg, jobs, sessionOptions{
		maxAttempts: opts.MaxAttempts,
		preseed:     opts.Preseed,
		store:       opts.Store, storeFlushEvery: opts.StoreFlushEvery,
		onJobDone: opts.OnJobDone, logf: logf,
	})
	if err != nil {
		for _, wc := range conns {
			wc.rwc.Close()
		}
		return nil, nil, err
	}
	workers := make([]*wireWorker, len(conns))
	for i, wc := range conns {
		workers[i] = newWireWorker(wc.name, wc.rwc, opts.JobTimeout)
		s.attach(workers[i])
	}
	results, st, err := s.wait()
	// Wind the connections down (the polite byes release sent, drained,
	// and flushed) and settle the whole-connection byte totals.
	for _, w := range workers {
		w.shutdown()
		st.BytesSent += w.bytesOut.Load()
		st.BytesReceived += w.bytesIn.Load()
	}
	return results, st, err
}
