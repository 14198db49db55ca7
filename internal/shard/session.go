package shard

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/eval"
)

// This file is the session engine shared by the one-shot coordinator
// (Run) and the resident hub (Hub): full-duplex wire workers — one
// reader and one writer goroutine per connection, so cache-seed pushes
// and result uploads overlap job execution — driven by a session that
// admits workers at any time, pushes merged cache records the moment
// they merge, and survives worker churn through the sched
// requeue/exclusion machinery.

// inFrame is one message received from a worker.
type inFrame struct {
	typ     byte
	payload []byte
}

// outFrame is one message queued for a worker.
type outFrame struct {
	typ     byte
	payload []byte
}

// outGroup is the writer's unit of transmission: its frames are written
// back to back and flushed once, and nothing is ever batched across
// groups. One flush per group keeps the transport write pattern
// deterministic (a dispatch is exactly one transport write), which the
// forced-schedule tests — and the write-deadline containment story —
// depend on.
type outGroup struct {
	frames []outFrame
}

// jobOnly reports whether a group carries nothing but job dispatches —
// the groups a seed push is allowed to overtake in the outbox.
func (g outGroup) jobOnly() bool {
	for _, f := range g.frames {
		if f.typ != msgJob {
			return false
		}
	}
	return len(g.frames) > 0
}

// byteMeter counts raw transport bytes in both directions into the
// owning wireWorker's atomic counters.
type byteMeter struct {
	rwc     io.ReadWriteCloser
	in, out *atomic.Int64
}

func (m byteMeter) Read(p []byte) (int, error) {
	n, err := m.rwc.Read(p)
	m.in.Add(int64(n))
	return n, err
}

func (m byteMeter) Write(p []byte) (int, error) {
	n, err := m.rwc.Write(p)
	m.out.Add(int64(n))
	return n, err
}

// wireWorker owns one worker connection for its whole lifetime —
// across many sessions, on a hub — with an independent reader and
// writer goroutine. The reader delivers every incoming frame on in;
// the writer drains a grouped outbox, flushing once per group. Either
// side's first transport error fails the connection as a whole:
// the error is recorded, the transport closed (unblocking the peer
// loop), and both goroutines wind down.
type wireWorker struct {
	name       string
	rwc        io.ReadWriteCloser
	jobTimeout time.Duration

	in      chan inFrame
	stopped chan struct{} // closed by fail; unblocks a reader stuck delivering

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []outGroup
	closed bool // closeOutbox called: writer drains the queue, then exits

	errMu sync.Mutex
	err   error // first transport error

	bytesIn, bytesOut atomic.Int64

	readerDone chan struct{}
	writerDone chan struct{}
}

// newWireWorker wraps rwc and starts the reader and writer loops.
func newWireWorker(name string, rwc io.ReadWriteCloser, jobTimeout time.Duration) *wireWorker {
	w := &wireWorker{
		name: name, rwc: rwc, jobTimeout: jobTimeout,
		in:      make(chan inFrame, 4),
		stopped: make(chan struct{}),

		readerDone: make(chan struct{}),
		writerDone: make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	m := byteMeter{rwc: rwc, in: &w.bytesIn, out: &w.bytesOut}
	go w.readLoop(m)
	go w.writeLoop(m)
	return w
}

// fail records the connection's first error and closes the transport,
// unblocking whichever loop is stuck in a read, write, or delivery.
func (w *wireWorker) fail(err error) {
	w.errMu.Lock()
	first := w.err == nil
	if first {
		w.err = err
	}
	w.errMu.Unlock()
	if first {
		close(w.stopped)
		w.rwc.Close()
		w.closeOutbox()
	}
}

func (w *wireWorker) failed() bool {
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err != nil
}

func (w *wireWorker) readLoop(m byteMeter) {
	defer close(w.readerDone)
	defer close(w.in)
	br := bufio.NewReader(m)
	for {
		typ, payload, err := readMsg(br)
		if err != nil {
			w.fail(err)
			return
		}
		select {
		case w.in <- inFrame{typ, payload}:
		case <-w.stopped:
			return
		}
	}
}

func (w *wireWorker) writeLoop(m byteMeter) {
	defer close(w.writerDone)
	bw := bufio.NewWriter(m)
	for {
		w.mu.Lock()
		for len(w.queue) == 0 && !w.closed {
			w.cond.Wait()
		}
		if len(w.queue) == 0 {
			w.mu.Unlock()
			return
		}
		g := w.queue[0]
		w.queue = w.queue[1:]
		w.mu.Unlock()
		if w.failed() {
			continue // discard; keep draining until closed
		}
		// Writes mirror the read-deadline discipline: a worker that
		// stopped draining its socket would otherwise block a dispatch
		// write forever once the transport buffer fills. Armed before
		// every group, expiry surfaces as a write error and the ordinary
		// loss/requeue path excludes the worker.
		w.armWrite()
		ok := true
		for _, f := range g.frames {
			if err := writeMsg(bw, f.typ, f.payload); err != nil {
				w.fail(err)
				ok = false
				break
			}
		}
		if ok {
			if err := bw.Flush(); err != nil {
				w.fail(err)
			}
		}
	}
}

// enqueue appends one group (one future flush) to the outbox.
func (w *wireWorker) enqueue(frames ...outFrame) {
	w.mu.Lock()
	if !w.closed {
		w.queue = append(w.queue, outGroup{frames: frames})
		w.cond.Signal()
	}
	w.mu.Unlock()
}

// enqueueSeed inserts a cache-seed push ahead of any queued job
// dispatches (but never ahead of a session preamble or end marker):
// a worker whose next job is still waiting in the outbox imports the
// merged records before that job runs, closing the t=0 duplicate
// window that dispatch-coupled seeding left open.
func (w *wireWorker) enqueueSeed(payload []byte) {
	w.mu.Lock()
	if !w.closed {
		i := len(w.queue)
		for i > 0 && w.queue[i-1].jobOnly() {
			i--
		}
		w.queue = append(w.queue, outGroup{})
		copy(w.queue[i+1:], w.queue[i:])
		w.queue[i] = outGroup{frames: []outFrame{{msgCacheSeed, payload}}}
		w.cond.Signal()
	}
	w.mu.Unlock()
}

// closeOutbox tells the writer to exit once the queue drains; further
// enqueues are dropped.
func (w *wireWorker) closeOutbox() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.cond.Broadcast()
}

// armWrite arms (or clears) the write deadline on deadline-capable
// transports.
func (w *wireWorker) armWrite() {
	if dl, ok := w.rwc.(interface{ SetWriteDeadline(time.Time) error }); ok {
		if w.jobTimeout > 0 {
			dl.SetWriteDeadline(time.Now().Add(w.jobTimeout))
		} else {
			dl.SetWriteDeadline(time.Time{})
		}
	}
}

// armRead arms or clears the read deadline on deadline-capable
// transports: armed while a job is in flight, cleared when its
// response arrives so an idle worker is never killed by staleness.
func (w *wireWorker) armRead(active bool) {
	if dl, ok := w.rwc.(interface{ SetReadDeadline(time.Time) error }); ok {
		if active && w.jobTimeout > 0 {
			dl.SetReadDeadline(time.Now().Add(w.jobTimeout))
		} else {
			dl.SetReadDeadline(time.Time{})
		}
	}
}

// shutdown closes the outbox (draining pending writes), closes the
// transport, and waits for both loops; the first transport error, if
// any, is returned.
func (w *wireWorker) shutdown() error {
	w.closeOutbox()
	<-w.writerDone
	w.rwc.Close()
	<-w.readerDone
	w.errMu.Lock()
	defer w.errMu.Unlock()
	return w.err
}

// sessionWorker is one worker's attachment to one session.
type sessionWorker struct {
	id int
	w  *wireWorker
	// seen[e] is the set of structures this worker is known to hold for
	// entry e (contributed or pushed); the merge-time seed fan-out
	// filters on it.
	seen []map[eval.CacheKey]bool
	// byte-counter baselines at attach time, for per-session accounting
	// on connections that outlive the session.
	inBase, outBase int64
}

// session executes one submission's jobs over whatever workers are
// attached — at start or at any later moment (late admission: an
// attaching worker receives the config, every base, and the
// accumulated merged seeds before its first job). Results merge
// deterministically into job-order slots; fresh cache records fan out
// to every other attached worker the moment they merge.
type session struct {
	cfg          RunConfig
	cfgPayload   []byte
	basePayloads [][]byte
	bases        []*aig.AIG
	jobs         []JobSpec
	slotOf       map[int]int
	sched        *sched
	maxAttempts  int
	preseed      bool
	// elastic sessions (hub) survive losing every worker — the jobs wait
	// for the next admission; non-elastic sessions (Run) abort.
	elastic bool
	// keepRaw retains each result's wire payload for verbatim forwarding
	// to a hub client (whose decode against its own structurally
	// identical base reproduces the coordinator's bytes exactly).
	keepRaw bool
	// countBytesOnDetach attributes transport bytes per session on
	// long-lived connections (hub); Run sums whole-connection totals
	// itself.
	countBytesOnDetach bool

	onJobDone func(jobIndex int, worker string)
	// onRelease, when set (hub), receives each worker when the session
	// is done with it — healthy workers return to the idle pool, lost
	// ones are dropped. When nil (Run), released workers get a bye.
	onRelease func(w *wireWorker, healthy bool)
	logf      func(format string, args ...any)

	mu         sync.Mutex
	st         *Stats
	mergedLog  [][]eval.CacheRecord
	results    []JobResult
	rawResults [][]byte
	gotResult  []bool
	jobErrs    []error
	attached   map[int]*sessionWorker
	nextID     int
	finished   bool
	failure    error

	done    chan struct{}
	driveWG sync.WaitGroup

	store     *eval.Store
	storeKeys []eval.StoreKey
	flushMu   sync.Mutex
	stopFlush chan struct{}
	flushWG   sync.WaitGroup
}

// sessionOptions carries the knobs newSession shares between Run and
// the hub.
type sessionOptions struct {
	maxAttempts     int
	preseed         bool
	store           *eval.Store
	storeFlushEvery time.Duration
	elastic         bool
	keepRaw         bool
	bytesOnDetach   bool
	onJobDone       func(jobIndex int, worker string)
	onRelease       func(w *wireWorker, healthy bool)
	logf            func(format string, args ...any)
}

// validateRun checks a submission's internal references — shared by
// Run and Hub.Submit — and returns the job-index -> slot map.
func validateRun(bases []*aig.AIG, cfg RunConfig, jobs []JobSpec) (map[int]int, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("shard: no jobs")
	}
	if len(bases) == 0 {
		return nil, fmt.Errorf("shard: no bases")
	}
	if len(cfg.Entries) == 0 {
		return nil, fmt.Errorf("shard: no entries")
	}
	for i, e := range cfg.Entries {
		if e.Base < 0 || e.Base >= len(bases) {
			return nil, fmt.Errorf("shard: entry %d references base %d of %d", i, e.Base, len(bases))
		}
	}
	for _, j := range jobs {
		if j.Entry < 0 || j.Entry >= len(cfg.Entries) {
			return nil, fmt.Errorf("shard: job %d references entry %d of %d", j.Index, j.Entry, len(cfg.Entries))
		}
	}
	// Recipe closures have no wire form; encodeConfig would silently
	// drop them and workers would anneal with the default catalog,
	// breaking the bit-identical contract. Refuse here, where the field
	// is lost.
	if cfg.Base.Recipes != nil {
		return nil, fmt.Errorf("shard: custom recipe catalogs cannot cross the wire (Base.Recipes must be nil)")
	}
	slotOf := make(map[int]int, len(jobs))
	for i, j := range jobs {
		if _, dup := slotOf[j.Index]; dup {
			return nil, fmt.Errorf("shard: duplicate job index %d", j.Index)
		}
		slotOf[j.Index] = i
	}
	return slotOf, nil
}

// newSession validates the submission, encodes the shippable payloads,
// warm-loads the store, and starts the flush ticker. No workers are
// attached yet.
func newSession(bases []*aig.AIG, cfg RunConfig, jobs []JobSpec, o sessionOptions) (*session, error) {
	slotOf, err := validateRun(bases, cfg, jobs)
	if err != nil {
		return nil, err
	}
	basePayloads := make([][]byte, len(bases))
	for i, g := range bases {
		p, err := encodeBase(uint32(i), g)
		if err != nil {
			return nil, err
		}
		basePayloads[i] = p
	}
	if o.maxAttempts <= 0 {
		o.maxAttempts = 3
	}
	if o.logf == nil {
		o.logf = func(string, ...any) {}
	}
	s := &session{
		cfg: cfg, cfgPayload: encodeConfig(cfg), basePayloads: basePayloads,
		bases: bases, jobs: jobs, slotOf: slotOf,
		sched:       newSched(jobs),
		maxAttempts: o.maxAttempts,
		preseed:     o.preseed || o.store != nil,
		elastic:     o.elastic, keepRaw: o.keepRaw, countBytesOnDetach: o.bytesOnDetach,
		onJobDone: o.onJobDone, onRelease: o.onRelease, logf: o.logf,
		st:        &Stats{},
		mergedLog: make([][]eval.CacheRecord, len(cfg.Entries)),
		results:   make([]JobResult, len(jobs)),
		gotResult: make([]bool, len(jobs)),
		jobErrs:   make([]error, len(jobs)),
		attached:  make(map[int]*sessionWorker),
		done:      make(chan struct{}),
		store:     o.store,
		stopFlush: make(chan struct{}),
	}
	if s.keepRaw {
		s.rawResults = make([][]byte, len(jobs))
	}
	s.st.MergedCaches = make([]map[eval.CacheKey]eval.Metrics, len(cfg.Entries))
	for e := range s.st.MergedCaches {
		s.st.MergedCaches[e] = make(map[eval.CacheKey]eval.Metrics)
	}
	// A persistent store warm-starts the merge: its records enter the
	// merged caches exactly like worker contributions, so the ordinary
	// seed fan-out delivers them to every worker at attach time — which
	// is why a store implies preseeding.
	if s.store != nil {
		s.storeKeys = make([]eval.StoreKey, len(cfg.Entries))
		for e, ent := range cfg.Entries {
			s.storeKeys[e] = eval.StoreKey{Design: bases[ent.Base].Hash(), Spec: ent.Eval.StoreHash(cfg.Library)}
			for _, rec := range s.store.Records(s.storeKeys[e]) {
				if _, dup := s.st.MergedCaches[e][rec.Key()]; dup {
					continue
				}
				s.st.MergedCaches[e][rec.Key()] = rec.M
				s.mergedLog[e] = append(s.mergedLog[e], rec)
				s.st.StoreLoaded++
			}
		}
		period := o.storeFlushEvery
		if period <= 0 {
			period = 30 * time.Second
		}
		s.flushWG.Add(1)
		go func() {
			defer s.flushWG.Done()
			tick := time.NewTicker(period)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					s.flushStore()
				case <-s.stopFlush:
					return
				}
			}
		}()
	}
	return s, nil
}

// flushStore appends every merged record to the store; Append
// deduplicates against what the store already holds, so passing the
// whole log each time needs no high-water bookkeeping and a crash
// between flushes loses at most one ticker period of new records.
func (s *session) flushStore() {
	if s.store == nil {
		return
	}
	s.flushMu.Lock()
	defer s.flushMu.Unlock()
	for e := range s.cfg.Entries {
		s.mu.Lock()
		recs := append([]eval.CacheRecord(nil), s.mergedLog[e]...)
		s.mu.Unlock()
		added, err := s.store.Append(s.storeKeys[e], recs)
		if err != nil {
			s.logf("shard: store flush of entry %d failed: %v", e, err)
			continue
		}
		s.mu.Lock()
		s.st.StoreFlushed += added
		s.mu.Unlock()
	}
}

// attach admits workers: each is sent the session preamble (config +
// every base, one flush) followed by the accumulated merged seeds per
// entry — the full warm start a late joiner needs — and a drive
// goroutine starts pulling jobs for it. Every worker joins the schedule
// before any of their drive goroutines starts, so a worker lost on its
// first job is never mistaken for the last one alive while the others
// are still being attached. Returns false when the session already
// finished or has no job left to resolve (the hub then returns the
// worker to its idle pool untouched). The second case covers the moment
// between the last job's completion and the session's finish: admitting
// a worker then would only send it the preamble and release it again,
// and the hub would re-admit it until the finish lands.
func (s *session) attach(ws ...*wireWorker) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.finished || s.sched.drained() {
		return false
	}
	sws := make([]*sessionWorker, len(ws))
	for i, w := range ws {
		sws[i] = s.admit(w)
	}
	for _, sw := range sws {
		s.driveWG.Add(1)
		go s.drive(sw)
	}
	return true
}

// admit registers w with the session and the schedule and queues its
// warm start. The caller holds s.mu.
func (s *session) admit(w *wireWorker) *sessionWorker {
	sw := &sessionWorker{
		id: s.nextID, w: w,
		seen:    make([]map[eval.CacheKey]bool, len(s.cfg.Entries)),
		inBase:  w.bytesIn.Load(),
		outBase: w.bytesOut.Load(),
	}
	s.nextID++
	for e := range sw.seen {
		sw.seen[e] = make(map[eval.CacheKey]bool)
	}
	s.attached[sw.id] = sw
	s.st.Workers = append(s.st.Workers, WorkerStats{Name: w.name})
	s.sched.addWorker(sw.id)

	// Preamble: config and every base in one flush.
	frames := make([]outFrame, 0, 1+len(s.basePayloads))
	frames = append(frames, outFrame{msgConfig, s.cfgPayload})
	for _, bp := range s.basePayloads {
		frames = append(frames, outFrame{msgBase, bp})
		s.st.BaseBytes += int64(len(bp))
	}
	s.st.BaseSends += len(s.basePayloads)
	w.enqueue(frames...)
	// Warm start: everything merged so far (store records and other
	// workers' contributions alike), one push per non-empty entry.
	if s.preseed {
		for e := range s.mergedLog {
			if len(s.mergedLog[e]) == 0 {
				continue
			}
			for _, rec := range s.mergedLog[e] {
				sw.seen[e][rec.Key()] = true
			}
			payload := encodeSeed(e, s.mergedLog[e])
			s.st.SeedPushes++
			s.st.SeedRecords += len(s.mergedLog[e])
			s.st.SeedBytes += int64(len(payload))
			w.enqueueSeed(payload)
		}
	}
	return sw
}

// detach removes a worker from the session's push set and settles its
// per-session byte accounting.
func (s *session) detach(sw *sessionWorker) {
	s.mu.Lock()
	delete(s.attached, sw.id)
	if s.countBytesOnDetach {
		s.st.BytesSent += sw.w.bytesOut.Load() - sw.outBase
		s.st.BytesReceived += sw.w.bytesIn.Load() - sw.inBase
	}
	s.mu.Unlock()
}

// drive is a worker's dispatch loop: one job in flight at a time —
// seeds and other traffic ride the same connection through the
// independent writer, so a job being out does not serialize anything
// else.
func (s *session) drive(sw *sessionWorker) {
	defer s.driveWG.Done()
	w := sw.w
	for {
		t, out := s.sched.next(sw.id)
		if out != nextJob {
			if out == nextWithdrawn {
				// Rebalance handoff: the partition target shrank and this
				// worker — idle at a job boundary — is donated back to the
				// hub, which re-admits it into the session that needed it.
				// The release path below is identical to session end
				// (msgEndSession, then the hub's pool), so the recipient's
				// attach gives it a full warm-start preamble.
				s.mu.Lock()
				s.st.Handoffs++
				s.mu.Unlock()
				s.logf("shard: worker %s withdrawn for rebalancing", w.name)
			}
			s.release(sw)
			return
		}
		s.mu.Lock()
		s.st.JobSends++
		s.mu.Unlock()
		w.armRead(true)
		w.enqueue(outFrame{msgJob, encodeJob(t.job)})
		f, alive := <-w.in
		w.armRead(false)
		if !alive {
			s.workerLost(sw, t, w.err)
			return
		}
		switch f.typ {
		case msgResult:
			e := t.job.Entry
			jr, recs, wire, err := decodeResult(s.bases[s.cfg.Entries[e].Base], f.payload)
			if err != nil || jr.Index != t.job.Index {
				if err == nil {
					err = fmt.Errorf("shard: result for job %d while %d in flight", jr.Index, t.job.Index)
				}
				w.fail(err)
				s.workerLost(sw, t, err)
				return
			}
			jr.Entry = e
			s.merge(sw, t, jr, recs, wire, f.payload)
		case msgJobError:
			idx, msg, derr := decodeJobError(f.payload)
			if derr != nil || idx != t.job.Index {
				if derr == nil {
					derr = fmt.Errorf("shard: error for job %d while %d in flight", idx, t.job.Index)
				}
				w.fail(derr)
				s.workerLost(sw, t, derr)
				return
			}
			t.attempts++
			s.logf("shard: job %d failed on %s (attempt %d/%d): %s",
				idx, w.name, t.attempts, s.maxAttempts, msg)
			if t.attempts >= s.maxAttempts {
				s.mu.Lock()
				s.jobErrs[s.slotOf[idx]] = &JobFailedError{Job: t.job, Attempts: t.attempts, Msg: msg}
				s.mu.Unlock()
				s.complete()
				continue
			}
			s.mu.Lock()
			s.st.Retries++
			s.mu.Unlock()
			s.sched.requeue(t, sw.id)
		default:
			err := fmt.Errorf("shard: unexpected message type %d", f.typ)
			w.fail(err)
			s.workerLost(sw, t, err)
			return
		}
	}
}

// merge installs one result: slot assignment, transfer accounting,
// cache-record merging, and the immediate fan-out of fresh records to
// every other attached worker — mid-job pushes land in their outboxes
// ahead of any queued dispatch, so a peer imports them before its next
// job with no dispatch round-trip in between.
func (s *session) merge(sw *sessionWorker, t *task, jr JobResult, recs []eval.CacheRecord, wire resultWire, raw []byte) {
	e := t.job.Entry
	s.mu.Lock()
	s.st.DeltaRecords += wire.deltaRecords
	s.st.DeltaBytes += wire.deltaBytes
	var fresh []eval.CacheRecord
	for _, rec := range recs {
		sw.seen[e][rec.Key()] = true
		if _, dup := s.st.MergedCaches[e][rec.Key()]; dup {
			s.st.CacheDuplicates++
			continue
		}
		s.st.MergedCaches[e][rec.Key()] = rec.M
		s.mergedLog[e] = append(s.mergedLog[e], rec)
		fresh = append(fresh, rec)
	}
	s.st.CacheRecords += len(recs)
	s.st.Workers[sw.id].Jobs++
	s.st.Workers[sw.id].PrefilterHits = wire.prefilterHits
	s.st.Workers[sw.id].PrefilterRejected = wire.prefilterRejected
	slot := s.slotOf[jr.Index]
	s.results[slot] = jr
	s.gotResult[slot] = true
	if s.keepRaw {
		s.rawResults[slot] = raw
	}
	if s.preseed && len(fresh) > 0 {
		for id, other := range s.attached {
			if id == sw.id {
				continue
			}
			var pending []eval.CacheRecord
			for _, rec := range fresh {
				if !other.seen[e][rec.Key()] {
					other.seen[e][rec.Key()] = true
					pending = append(pending, rec)
				}
			}
			if len(pending) == 0 {
				continue
			}
			payload := encodeSeed(e, pending)
			s.st.SeedPushes++
			s.st.SeedRecords += len(pending)
			s.st.SeedBytes += int64(len(payload))
			other.w.enqueueSeed(payload)
		}
	}
	s.mu.Unlock()
	s.complete()
	if s.onJobDone != nil {
		s.onJobDone(jr.Index, sw.w.name)
	}
}

// complete marks one job resolved (result or exhausted error) and
// finishes the session when it was the last.
func (s *session) complete() {
	if s.sched.complete() == 0 {
		s.finish(nil)
	}
}

// workerLost handles a transport failure: the in-flight job (if any)
// is requeued for the survivors, the worker leaves the schedule, and —
// for non-elastic sessions — losing the whole fleet aborts the run.
func (s *session) workerLost(sw *sessionWorker, t *task, why error) {
	s.logf("shard: worker %s lost: %v", sw.w.name, why)
	s.mu.Lock()
	s.st.WorkerLosses++
	s.st.Workers[sw.id].Lost = true
	if t != nil {
		s.st.Requeues++
	}
	total := len(s.st.Workers)
	s.mu.Unlock()
	if t != nil {
		s.sched.requeue(t, -1) // dead workers need no exclusion entry
	}
	remaining, missing := s.sched.workerDead(sw.id)
	s.detach(sw)
	if !s.elastic && remaining == 0 && missing > 0 {
		s.finish(fmt.Errorf("shard: all %d workers lost with %d jobs unfinished", total, missing))
	}
	if s.onRelease != nil {
		s.onRelease(sw.w, false)
	}
}

// release hands a worker back once the session has no more work for
// it: to the hub's idle pool (after an end-of-session marker clears
// the worker's per-session state), or — for one-shot runs — a polite
// bye.
func (s *session) release(sw *sessionWorker) {
	s.detach(sw)
	if s.onRelease != nil {
		sw.w.enqueue(outFrame{msgEndSession, nil})
		s.onRelease(sw.w, true)
		return
	}
	sw.w.enqueue(outFrame{msgBye, nil})
}

// finish resolves the session exactly once.
func (s *session) finish(err error) {
	s.mu.Lock()
	if s.finished {
		s.mu.Unlock()
		return
	}
	s.finished = true
	s.failure = err
	s.mu.Unlock()
	s.sched.abort()
	close(s.done)
}

// abort fails the session from outside (hub shutdown).
func (s *session) abort(err error) { s.finish(err) }

// wait blocks until the session resolves and every drive goroutine
// exits, settles the store, and returns results in job order — or the
// session failure, or the first job error in job order.
func (s *session) wait() ([]JobResult, *Stats, error) {
	<-s.done
	s.driveWG.Wait()
	close(s.stopFlush)
	s.flushWG.Wait()
	s.flushStore()
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.st
	st.PrefilterHits, st.PrefilterRejected = 0, 0
	for i := range st.Workers {
		st.PrefilterHits += st.Workers[i].PrefilterHits
		st.PrefilterRejected += st.Workers[i].PrefilterRejected
	}
	if s.failure != nil {
		return nil, st, s.failure
	}
	for i := range s.jobs {
		if s.jobErrs[i] != nil {
			return nil, st, s.jobErrs[i]
		}
	}
	return s.results, st, nil
}
