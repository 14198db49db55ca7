package shard

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/eval"
)

// HubOptions configures a resident Hub.
type HubOptions struct {
	// MaxAttempts bounds per-job retries after worker-side errors
	// (0 = the default of 3).
	MaxAttempts int
	// JobTimeout arms read/write deadlines on deadline-capable worker
	// transports while a job is in flight (0 = none).
	JobTimeout time.Duration
	// Preseed pushes merged cache records to workers the moment they
	// merge; see Options.Preseed. A Store implies it.
	Preseed bool
	// Store, when set, persists every submission's merged records and
	// warm-starts later submissions that sweep the same (design,
	// evaluator) pairs; the hub owns the flush cadence. See
	// Options.Store.
	Store *eval.Store
	// StoreFlushEvery is the mid-run store flush cadence (0 = 30s).
	StoreFlushEvery time.Duration
	// OnJobDone, when set, is invoked as each grid point's result merges
	// (session job index, worker name).
	OnJobDone func(jobIndex int, worker string)
	// MaxSessions caps how many submissions run concurrently, each over
	// a disjoint partition of the fleet (0 = 4). 1 restores the serial
	// FIFO hub: one session at a time over the whole fleet.
	MaxSessions int
	// MinWorkersPerSession is the partition floor (0 = 1): a second or
	// later submission is admitted only when the fleet can keep every
	// running session at this floor after the split. The first
	// submission always starts — even with an empty fleet it waits
	// elastically for the first registration.
	MinWorkersPerSession int
	// Logf, when set, receives admission, scheduling, and failure events.
	Logf func(format string, args ...any)
}

// Submission is one queued sweep session: its inputs, and — once the
// hub has run it — its outcome.
type Submission struct {
	bases   []*aig.AIG
	cfg     RunConfig
	jobs    []JobSpec
	keepRaw bool

	// queueDepth is how many submissions (active or queued) were ahead
	// at enqueue time; surfaced as Stats.QueueDepth.
	queueDepth int

	done    chan struct{}
	results []JobResult
	raw     [][]byte // per-slot wire payloads when keepRaw
	stats   *Stats
	err     error
}

// Wait blocks until the hub has executed the submission and returns
// its results in job order (shape and content identical to Run's) plus
// the session's Stats.
func (s *Submission) Wait() ([]JobResult, *Stats, error) {
	<-s.done
	return s.results, s.stats, s.err
}

// activeSession is one running submission plus the hub's view of its
// partition: which workers it currently owns and how many the last
// plan allotted it.
type activeSession struct {
	s   *session
	sub *Submission
	seq int // admission order; active stays sorted by it (oldest first)

	// assigned is this session's partition — the workers attached to it
	// right now, updated under Hub.mu at attach and release. Partitions
	// are disjoint: a worker is in at most one session's assigned set,
	// or in the idle pool, never both.
	assigned map[*wireWorker]bool
	target   int // worker count the last plan allotted
}

// Hub is a resident sweep coordinator: a queue of submissions executed
// over an elastic worker fleet, up to MaxSessions of them concurrently,
// each over a disjoint partition of the fleet (planPartitions). Workers
// register at any moment — a worker admitted mid-sweep receives the
// session config, every base, and the accumulated merged cache records
// before its first job (the same warm start a store-backed restart
// gets) — and worker churn mid-job is absorbed by the requeue/exclusion
// machinery. As submissions arrive and finish the partitions rebalance:
// a session whose share shrank donates workers at their next job
// boundary (never mid-job), and each donated worker re-enters the
// recipient through the same warm-start admission path. Between
// assignments workers wait in an idle pool with their per-session state
// dropped (msgEndSession), so a fleet serves any number of submissions
// without accumulating memory.
//
// Sessions are byte-transparent: for a fixed submission the results
// are bit-identical to a local sweep, whatever the fleet or the
// partition plan does. Run is a Hub too, over a fixed fleet with one
// submission.
type Hub struct {
	opts        HubOptions
	logf        func(format string, args ...any)
	maxSessions int
	minPer      int

	mu     sync.Mutex
	idle   []*wireWorker
	queue  []*Submission
	active []*activeSession // admission order: oldest first
	seq    int
	closed bool
	// fixed is the size of a fleet that never grows (Run's), or 0 for a
	// resident hub: a fixed fleet that loses its last worker ends every
	// session with jobs left, where a resident hub waits for the next
	// registration.
	fixed int

	// closeWG counts the per-session waiters and the shutdowns of
	// workers that died idle.
	closeWG sync.WaitGroup
}

// NewHub starts a hub with no workers and an empty queue.
func NewHub(opts HubOptions) *Hub {
	h := &Hub{opts: opts, logf: opts.Logf, maxSessions: opts.MaxSessions, minPer: opts.MinWorkersPerSession}
	if h.logf == nil {
		h.logf = func(string, ...any) {}
	}
	if h.maxSessions <= 0 {
		h.maxSessions = 4
	}
	if h.minPer < 1 {
		h.minPer = 1
	}
	return h
}

// Submit validates and enqueues one sweep session. The returned
// Submission resolves when the hub has executed it; submissions are
// admitted in arrival order, up to MaxSessions concurrently.
func (h *Hub) Submit(bases []*aig.AIG, cfg RunConfig, jobs []JobSpec) (*Submission, error) {
	return h.submit(bases, cfg, jobs, false)
}

func (h *Hub) submit(bases []*aig.AIG, cfg RunConfig, jobs []JobSpec, keepRaw bool) (*Submission, error) {
	if _, err := validateRun(bases, cfg, jobs); err != nil {
		return nil, err
	}
	sub := &Submission{bases: bases, cfg: cfg, jobs: jobs, keepRaw: keepRaw, done: make(chan struct{})}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, fmt.Errorf("shard: hub closed")
	}
	sub.queueDepth = len(h.active) + len(h.queue)
	h.queue = append(h.queue, sub)
	h.logf("hub: submission queued (%d jobs, %d entries, %d ahead)", len(jobs), len(cfg.Entries), sub.queueDepth)
	h.scheduleLocked()
	h.mu.Unlock()
	return sub, nil
}

// AddWorker admits a worker connection into the fleet; the scheduler
// immediately hands it to the neediest session (late admission) or
// parks it in the idle pool. The hub owns the connection from here on.
func (h *Hub) AddWorker(name string, rwc io.ReadWriteCloser) error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		rwc.Close()
		return fmt.Errorf("shard: hub closed")
	}
	w := newWireWorker(name, rwc, h.opts.JobTimeout)
	h.idle = append(h.idle, w)
	h.logf("hub: worker %s registered", name)
	h.scheduleLocked()
	h.mu.Unlock()
	return nil
}

// fleetLocked is the usable fleet size: idle workers plus every active
// session's partition. Callers hold h.mu.
func (h *Hub) fleetLocked() int {
	n := len(h.idle)
	for _, as := range h.active {
		n += len(as.assigned)
	}
	return n
}

// scheduleLocked is the hub's one scheduling step, run under h.mu
// after every event that can change the plan: a submission arriving, a
// worker registering, a worker released (handoff, session end, or
// loss), a session completing. It culls dead idle connections, admits
// queued submissions while the cap and the floor allow, retargets
// every active session from planPartitions, and attaches idle workers
// to sessions under target, oldest first. Sessions over target shed
// the surplus themselves: their sched target makes workers withdraw at
// the next job boundary, which re-enters this function via releaseFrom.
func (h *Hub) scheduleLocked() {
	if h.closed {
		return
	}
	live := h.idle[:0]
	for _, w := range h.idle {
		if w.failed() {
			// Died while idle; drop it rather than charging a session a
			// loss for a connection that was already gone. Shutdown of a
			// failed worker only reaps its loops — do it off the lock.
			h.logf("hub: worker %s dropped (died while idle)", w.name)
			h.closeWG.Add(1)
			go func() {
				defer h.closeWG.Done()
				w.shutdown()
			}()
			continue
		}
		live = append(live, w)
	}
	h.idle = live

	for len(h.queue) > 0 && canAdmit(h.fleetLocked(), len(h.active), h.maxSessions, h.minPer) {
		sub := h.queue[0]
		h.queue = h.queue[1:]
		h.startLocked(sub)
	}
	if h.fixed > 0 && h.fleetLocked() == 0 {
		for _, as := range h.active {
			if n := as.s.sched.pending(); n > 0 {
				as.s.finish(fmt.Errorf("shard: all %d workers lost with %d jobs unfinished", h.fixed, n))
			}
		}
	}

	targets := planPartitions(h.fleetLocked(), len(h.active), h.minPer)
	for i, as := range h.active {
		as.target = targets[i]
		as.s.sched.setTarget(targets[i])
	}
	for i, as := range h.active {
		n := min(targets[i]-len(as.assigned), len(h.idle))
		if n <= 0 {
			continue
		}
		// One attach per session, so every worker it gains here is
		// admitted before any of them drives: attached one at a time, the
		// first could resolve every job before the next joined, and a
		// fixed fleet would not be admitted whole.
		ws := append([]*wireWorker(nil), h.idle[:n]...)
		if !as.s.attach(ws...) {
			// The session finished between planning and attach; the
			// workers stay idle and the completion path reschedules.
			continue
		}
		h.idle = h.idle[n:]
		for _, w := range ws {
			as.assigned[w] = true
			h.logf("hub: worker %s -> session #%d (%d/%d)", w.name, as.seq, len(as.assigned), targets[i])
		}
	}
}

// startLocked promotes one queued submission to an active session.
// Callers hold h.mu.
func (h *Hub) startLocked(sub *Submission) {
	as := &activeSession{sub: sub, seq: h.seq, assigned: make(map[*wireWorker]bool)}
	h.seq++
	s, err := newSession(sub.bases, sub.cfg, sub.jobs, h.opts, sub.keepRaw,
		func(w *wireWorker, healthy bool) { h.releaseFrom(as, w, healthy) })
	if err != nil {
		// Already validated at Submit, so only payload encoding can
		// fail here.
		sub.err = err
		close(sub.done)
		return
	}
	as.s = s
	h.active = append(h.active, as)
	h.closeWG.Add(1)
	go h.awaitSession(as)
	h.logf("hub: session #%d started (%d jobs, %d active, %d queued)",
		as.seq, len(sub.jobs), len(h.active), len(h.queue))
}

// releaseFrom receives a worker back from one session's partition:
// healthy ones (session done with it, or a rebalance handoff — the
// end-of-session marker is already in their outbox) return to the idle
// pool and the plan re-runs, typically re-admitting the worker into
// the session that is under target; lost ones are torn down and the
// shrunken fleet replanned.
func (h *Hub) releaseFrom(as *activeSession, w *wireWorker, healthy bool) {
	h.mu.Lock()
	delete(as.assigned, w)
	if !healthy {
		h.scheduleLocked()
		h.mu.Unlock()
		w.shutdown()
		h.logf("hub: worker %s dropped", w.name)
		return
	}
	if h.closed {
		h.mu.Unlock()
		w.enqueue(outFrame{msgBye, nil})
		w.shutdown()
		return
	}
	h.idle = append(h.idle, w)
	h.scheduleLocked()
	h.mu.Unlock()
}

// awaitSession resolves one active session's submission when the
// session finishes, removes it from the active set, and reschedules —
// freeing its partition for the queue within the same tick.
func (h *Hub) awaitSession(as *activeSession) {
	defer h.closeWG.Done()
	results, st, runErr := as.s.wait()
	st.QueueDepth = as.sub.queueDepth
	sub := as.sub
	sub.results, sub.stats, sub.err = results, st, runErr
	if sub.keepRaw {
		as.s.mu.Lock()
		sub.raw = as.s.rawResults
		as.s.mu.Unlock()
	}
	h.mu.Lock()
	for i, other := range h.active {
		if other == as {
			h.active = append(h.active[:i], h.active[i+1:]...)
			break
		}
	}
	h.scheduleLocked()
	h.mu.Unlock()
	close(sub.done)
	h.logf("hub: session #%d finished (err=%v)", as.seq, runErr)
}

// failAttached fails every worker still attached to s, unblocking
// drive loops waiting on in-flight jobs; used on hub shutdown.
func (s *session) failAttached(err error) {
	s.mu.Lock()
	ws := make([]*wireWorker, 0, len(s.attached))
	for _, sw := range s.attached {
		ws = append(ws, sw.w)
	}
	s.mu.Unlock()
	for _, w := range ws {
		w.fail(err)
	}
}

// Close shuts the hub down: active sessions abort, queued submissions
// resolve with an error, and every worker connection is closed. Close
// blocks until every session waiter has exited.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		h.closeWG.Wait()
		return nil
	}
	h.closed = true
	active := append([]*activeSession(nil), h.active...)
	idle := h.idle
	h.idle = nil
	queued := h.queue
	h.queue = nil
	h.mu.Unlock()
	err := fmt.Errorf("shard: hub closed")
	for _, sub := range queued {
		sub.err = err
		close(sub.done)
	}
	for _, as := range active {
		as.s.finish(err)
		as.s.failAttached(err)
	}
	for _, w := range idle {
		w.enqueue(outFrame{msgBye, nil})
		w.shutdown()
	}
	h.closeWG.Wait()
	return nil
}

// ServeListener accepts hub connections (workers and clients alike)
// until the listener closes; each connection is handled concurrently.
func (h *Hub) ServeListener(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		go func() {
			if err := h.HandleConn(conn); err != nil {
				h.logf("hub: connection from %s: %v", conn.RemoteAddr(), err)
			}
		}()
	}
}

// prefixedConn replays bytes a handshake reader already buffered
// before handing the transport to code that reads the raw connection.
type prefixedConn struct {
	io.Reader
	io.ReadWriteCloser
}

func (p prefixedConn) Read(b []byte) (int, error) { return p.Reader.Read(b) }

// helloTimeout bounds how long a new connection may take to deliver
// its hello; a peer that connects and sends nothing is dropped then
// instead of holding a goroutine and a socket until it disconnects.
const helloTimeout = 10 * time.Second

// maxHelloPayload caps the hello frame: it carries only a protocol
// version, a role and a display name.
const maxHelloPayload = 1 << 10

// helloDeadline is the hello read deadline HandleConn applies; tests
// shorten it.
var helloDeadline = helloTimeout

// HandleConn speaks the hub side of one connection: it reads the hello
// and dispatches on the peer's role. The hello must arrive within
// helloTimeout and fit in maxHelloPayload bytes; the deadline is lifted
// before the peer is served, so idle workers and clients are never timed
// out later. Worker connections are handed to the fleet (HandleConn
// returns immediately); client connections are served until they
// disconnect (HandleConn blocks).
func (h *Hub) HandleConn(conn net.Conn) error {
	br := bufio.NewReader(conn)
	if err := conn.SetReadDeadline(time.Now().Add(helloDeadline)); err != nil {
		conn.Close()
		return fmt.Errorf("shard: hub handshake: %w", err)
	}
	typ, payload, err := readMsgLimit(br, maxHelloPayload)
	if err != nil {
		conn.Close()
		return fmt.Errorf("shard: hub handshake: %w", err)
	}
	if err := conn.SetReadDeadline(time.Time{}); err != nil {
		conn.Close()
		return fmt.Errorf("shard: hub handshake: %w", err)
	}
	if typ != msgHello {
		conn.Close()
		return fmt.Errorf("shard: hub handshake: unexpected message type %d", typ)
	}
	role, name, err := decodeHello(payload)
	if err != nil {
		conn.Close()
		return err
	}
	if name == "" {
		name = conn.RemoteAddr().String()
	}
	switch role {
	case roleWorker:
		var rwc io.ReadWriteCloser = conn
		if n := br.Buffered(); n > 0 {
			// The handshake read may have buffered frames past the hello;
			// replay them before the raw connection.
			rwc = prefixedConn{
				Reader:          io.MultiReader(io.LimitReader(br, int64(n)), conn),
				ReadWriteCloser: conn,
			}
		}
		return h.AddWorker(name, rwc)
	case roleClient:
		defer conn.Close()
		return h.serveClient(name, conn, br)
	default:
		conn.Close()
		return fmt.Errorf("shard: unknown hello role %d", role)
	}
}

// serveClient executes a client's submissions in arrival order. Each
// msgSubmit is answered with one msgSubmitResult per job — the
// result's wire payload forwarded verbatim, so the client's decode
// against its own structurally identical base reproduces the session's
// results byte-for-byte — followed by a msgSubmitDone carrying the
// outcome and stats.
func (h *Hub) serveClient(name string, conn net.Conn, br *bufio.Reader) error {
	bw := bufio.NewWriter(conn)
	for {
		typ, payload, err := readMsg(br)
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("shard: client %s read: %w", name, err)
		}
		if typ != msgSubmit {
			return fmt.Errorf("shard: client %s sent unexpected message type %d", name, typ)
		}
		bases, cfg, jobs, err := decodeSubmit(payload)
		if err != nil {
			return err
		}
		var raw [][]byte
		var st *Stats
		var runErr error
		sub, err := h.submit(bases, cfg, jobs, true)
		if err != nil {
			st, runErr = &Stats{}, err
		} else {
			_, st, runErr = sub.Wait()
			raw = sub.raw
		}
		for _, p := range raw {
			if p == nil {
				continue
			}
			if err := writeMsg(bw, msgSubmitResult, p); err != nil {
				return fmt.Errorf("shard: client %s write: %w", name, err)
			}
		}
		if st == nil {
			st = &Stats{}
		}
		if err := writeMsg(bw, msgSubmitDone, encodeSubmitDone(runErr, st)); err != nil {
			return fmt.Errorf("shard: client %s write: %w", name, err)
		}
		if err := bw.Flush(); err != nil {
			return fmt.Errorf("shard: client %s flush: %w", name, err)
		}
	}
}

// HubClient submits sweep sessions to a remote Hub over one framed
// connection and decodes the streamed results locally — against its
// own base graphs, which is what keeps hub results byte-identical to
// local ones.
type HubClient struct {
	conn io.ReadWriteCloser
	br   *bufio.Reader
	bw   *bufio.Writer
	mu   sync.Mutex // one submission in flight per client connection
}

// NewHubClient performs the client handshake over an established
// connection (tests use net.Pipe; DialHub is the TCP path).
func NewHubClient(conn io.ReadWriteCloser, name string) (*HubClient, error) {
	c := &HubClient{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}
	if err := writeMsg(c.bw, msgHello, encodeHello(roleClient, name)); err != nil {
		conn.Close()
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// DialHub connects to a hub's listen address as a submission client.
func DialHub(addr, name string, timeout time.Duration) (*HubClient, error) {
	d := net.Dialer{Timeout: timeout, KeepAlive: 15 * time.Second}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("shard: dialing hub %s: %w", addr, err)
	}
	return NewHubClient(conn, name)
}

// Submit runs one sweep session on the hub and blocks until it
// resolves. Results come back in job order, bit-identical to what Run
// (or a local sweep) would produce for the same submission.
func (c *HubClient) Submit(bases []*aig.AIG, cfg RunConfig, jobs []JobSpec) ([]JobResult, *Stats, error) {
	slotOf, err := validateRun(bases, cfg, jobs)
	if err != nil {
		return nil, nil, err
	}
	basePayloads := make([][]byte, len(bases))
	for i, g := range bases {
		p, err := encodeBase(uint32(i), g)
		if err != nil {
			return nil, nil, err
		}
		basePayloads[i] = p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := writeMsg(c.bw, msgSubmit, encodeSubmit(encodeConfig(cfg), basePayloads, jobs)); err != nil {
		return nil, nil, fmt.Errorf("shard: submitting to hub: %w", err)
	}
	if err := c.bw.Flush(); err != nil {
		return nil, nil, fmt.Errorf("shard: submitting to hub: %w", err)
	}
	results := make([]JobResult, len(jobs))
	got := make([]bool, len(jobs))
	for {
		typ, payload, err := readMsg(c.br)
		if err != nil {
			return nil, nil, fmt.Errorf("shard: hub connection: %w", err)
		}
		switch typ {
		case msgSubmitResult:
			idx, err := resultIndex(payload)
			if err != nil {
				return nil, nil, err
			}
			slot, ok := slotOf[idx]
			if !ok {
				return nil, nil, fmt.Errorf("shard: hub returned result for unknown job index %d", idx)
			}
			e := jobs[slot].Entry
			jr, _, _, err := decodeResult(bases[cfg.Entries[e].Base], payload)
			if err != nil {
				return nil, nil, err
			}
			jr.Entry = e
			results[slot] = jr
			got[slot] = true
		case msgSubmitDone:
			st, runErr, err := decodeSubmitDone(payload)
			if err != nil {
				return nil, nil, err
			}
			if runErr != nil {
				return nil, st, runErr
			}
			for i := range got {
				if !got[i] {
					return nil, st, fmt.Errorf("shard: hub omitted a result for job index %d", jobs[i].Index)
				}
			}
			return results, st, nil
		default:
			return nil, nil, fmt.Errorf("shard: unexpected hub message type %d", typ)
		}
	}
}

// Close closes the client connection.
func (c *HubClient) Close() error { return c.conn.Close() }

// RegisterWorker performs the worker handshake over an established
// connection and serves jobs until the hub says bye or the transport
// fails (same semantics as Serve; cmd/sweepd's -hub mode is the
// production caller).
func RegisterWorker(conn io.ReadWriteCloser, name string, runner Runner) error {
	defer conn.Close()
	bw := bufio.NewWriter(conn)
	if err := writeMsg(bw, msgHello, encodeHello(roleWorker, name)); err != nil {
		return fmt.Errorf("shard: worker handshake: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("shard: worker handshake: %w", err)
	}
	return serveConn(conn, bufio.NewReader(conn), runner)
}
