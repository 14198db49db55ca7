package shard

import (
	"bufio"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"aigtimer/internal/aig"
	"aigtimer/internal/eval"
)

// Runner executes grid points on the worker side. The shard layer
// handles transport, base-graph plumbing, and retry; the Runner owns
// everything domain-specific — constructing the per-entry evaluators
// named by the config, building the evaluation stacks, running the
// anneal, and the winner's ground-truth metrics (flows.NewShardRunner is
// the production implementation). A Runner serves one session at a
// time; Serve calls it sequentially.
type Runner interface {
	// Configure installs the session configuration. It is called once
	// per session, before any job or seed push of that session; on a
	// resident worker a later Configure starts a fresh session and must
	// not inherit per-entry state from the previous one.
	Configure(cfg RunConfig) error
	// Run executes one grid point against the given base graph (the one
	// named by the job's entry). The result must be bit-identical to
	// what the same job would produce locally — the coordinator's merge
	// is checked against that promise.
	Run(base *aig.AIG, job JobSpec) (*WorkResult, error)
	// CacheSnapshot exports the entry's memo-cache records added since
	// the previous call for the same entry (nil when the entry is
	// uncached or nothing is new); the session ships them with each
	// result for coordinator-side merging. Implementations back this
	// with eval.Cached.ExportSince, so a call costs O(new records).
	CacheSnapshot(entry int) []eval.CacheRecord
	// Preseed installs merged cache records the coordinator pushed for
	// one entry (a no-op for uncached entries). Implementations back
	// this with eval.Cached.ImportRecords, so a pushed record may only
	// ever skip oracle work, never answer a lookup. Preseed may be
	// called concurrently with Run — a hub pushes seeds while a job is
	// executing — and implementations must tolerate that (eval.Cached
	// is mutex-guarded, so the production runner already does).
	Preseed(entry int, recs []eval.CacheRecord)
	// CacheStats reports the session-cumulative cache counters summed
	// over all entries (zero value for uncached runners); the prefilter
	// counters ride along with every result for coordinator accounting.
	CacheStats() eval.CacheStats
	// EndSession drops all per-session state (evaluation stacks, caches,
	// warm-start bookkeeping) so a resident worker does not accumulate
	// memory across the sessions a hub feeds it. Long-lived resources
	// that are session-independent (e.g. a shared evaluation-stack pool)
	// survive. Called between sessions; never concurrently with Run.
	EndSession()
}

// workerState is the shared state between the Serve goroutines: the
// reader (which owns the protocol), the executor (which owns the
// Runner), and the writer (which owns the transport's write side).
type workerState struct {
	mu         sync.Mutex
	cond       *sync.Cond
	cfgGen     int   // bumped by the reader on each msgConfig
	appliedGen int   // set by the executor once Configure returned
	fatal      error // first protocol/Runner-level fatal error
}

func (ws *workerState) setFatal(err error) {
	ws.mu.Lock()
	if ws.fatal == nil {
		ws.fatal = err
	}
	ws.cond.Broadcast()
	ws.mu.Unlock()
}

func (ws *workerState) fatalErr() error {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	return ws.fatal
}

// waitApplied blocks until the executor has applied config generation
// gen (so seeds pushed right behind a config are not imported into the
// previous session's stacks). Returns false if a fatal error lands
// first — the caller must stop decoding.
func (ws *workerState) waitApplied(gen int) bool {
	ws.mu.Lock()
	defer ws.mu.Unlock()
	for ws.appliedGen < gen && ws.fatal == nil {
		ws.cond.Wait()
	}
	return ws.fatal == nil
}

func (ws *workerState) applied(gen int) {
	ws.mu.Lock()
	if gen > ws.appliedGen {
		ws.appliedGen = gen
	}
	ws.cond.Broadcast()
	ws.mu.Unlock()
}

// workerCmd is one unit of work handed from the reader to the executor.
type workerCmd struct {
	typ    byte
	cfg    RunConfig // msgConfig
	cfgGen int       // msgConfig
	baseID uint32    // msgBase
	base   *aig.AIG  // msgBase
	job    JobSpec   // msgJob
}

// Serve speaks the worker side of the shard protocol over conn until
// the coordinator says bye, the connection closes while no session is
// active, or the transport fails. Job execution errors are reported to
// the coordinator (which retries elsewhere) and do not end the session;
// protocol and transport errors do, and are returned.
//
// Serve is full duplex: reading (so a cache seed pushed mid-job is
// imported before the *next* job, not after the next dispatch
// round-trip), job execution, and result writing run in independent
// goroutines.
//
// An EOF is only a clean shutdown when it arrives between sessions —
// after a msgEndSession, or before any config on a connection that has
// already served one. EOF before the first config, or mid-session, or
// with a job outstanding, is reported as an error so supervisors can
// tell a half-open hub connection from an orderly drain.
func Serve(conn io.ReadWriteCloser, runner Runner) error {
	defer conn.Close()
	return serveConn(conn, bufio.NewReader(conn), runner)
}

// serveConn is Serve with the buffered reader supplied by the caller —
// the hub handshake path has already consumed bytes from the stream.
func serveConn(conn io.ReadWriteCloser, br *bufio.Reader, runner Runner) error {
	ws := &workerState{}
	ws.cond = sync.NewCond(&ws.mu)

	var outstanding atomic.Int64 // jobs dispatched, result not yet flushed
	var writeErr error
	var writeErrOnce sync.Once

	cmds := make(chan workerCmd, 4)
	outs := make(chan outFrame, 4)
	var wg sync.WaitGroup

	// Writer: owns the transport's write side. One flush per frame so a
	// result lands on the wire the moment it exists, independent of what
	// the executor does next. After a write error it keeps draining so
	// the executor never blocks, but touches the connection no further.
	wg.Add(1)
	go func() {
		defer wg.Done()
		bw := bufio.NewWriter(conn)
		dead := false
		for f := range outs {
			if !dead {
				err := writeMsg(bw, f.typ, f.payload)
				if err == nil {
					err = bw.Flush()
				}
				if err != nil {
					writeErrOnce.Do(func() { writeErr = err })
					dead = true
					conn.Close()
				}
			}
			if f.typ == msgResult || f.typ == msgJobError {
				outstanding.Add(-1)
			}
		}
	}()

	// Executor: owns the Runner. Runs jobs sequentially in command
	// order; after a fatal error it keeps draining commands (decrementing
	// nothing — the reader stops feeding jobs once it observes fatal).
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(outs)
		var cfg RunConfig
		var bases map[uint32]*aig.AIG
		for c := range cmds {
			if ws.fatalErr() != nil {
				continue
			}
			switch c.typ {
			case msgConfig:
				if err := runner.Configure(c.cfg); err != nil {
					ws.setFatal(fmt.Errorf("shard: configure: %w", err))
					conn.Close()
					continue
				}
				cfg = c.cfg
				bases = make(map[uint32]*aig.AIG)
				ws.applied(c.cfgGen)
			case msgBase:
				if bases == nil {
					ws.setFatal(fmt.Errorf("shard: base before config"))
					conn.Close()
					continue
				}
				bases[c.baseID] = c.base
			case msgJob:
				base, ok := bases[uint32(cfg.Entries[c.job.Entry].Base)]
				if !ok {
					ws.setFatal(fmt.Errorf("shard: job references unsent base %d", cfg.Entries[c.job.Entry].Base))
					conn.Close()
					continue
				}
				var out []byte
				wr, err := runner.Run(base, c.job)
				if err == nil {
					out, err = encodeResult(base, c.job.Index, wr, runner.CacheSnapshot(c.job.Entry), runner.CacheStats())
				}
				if err != nil {
					outs <- outFrame{typ: msgJobError, payload: encodeJobError(c.job.Index, err)}
				} else {
					outs <- outFrame{typ: msgResult, payload: out}
				}
			case msgEndSession:
				bases = nil
				runner.EndSession()
			}
		}
	}()

	// Reader: owns the protocol. Decodes every frame; seeds are applied
	// here — concurrently with a running job — which is the whole point
	// of the split.
	var (
		everConfigured bool // at least one session started on this conn
		sessionActive  bool // a session is open (config seen, no end yet)
		sawBye         bool
		numEntries     int
		readErr        error
	)
loop:
	for {
		typ, payload, err := readMsg(br)
		if err != nil {
			readErr = err
			break
		}
		switch typ {
		case msgConfig:
			cfg, err := decodeConfig(payload)
			if err != nil {
				readErr = err
				break loop
			}
			ws.mu.Lock()
			ws.cfgGen++
			gen := ws.cfgGen
			ws.mu.Unlock()
			everConfigured = true
			sessionActive = true
			numEntries = len(cfg.Entries)
			cmds <- workerCmd{typ: msgConfig, cfg: cfg, cfgGen: gen}
		case msgBase:
			id, g, err := decodeBase(payload)
			if err != nil {
				readErr = err
				break loop
			}
			if !sessionActive {
				readErr = fmt.Errorf("shard: base before config")
				break loop
			}
			cmds <- workerCmd{typ: msgBase, baseID: id, base: g}
		case msgCacheSeed:
			if !sessionActive {
				readErr = fmt.Errorf("shard: cache seed before config")
				break loop
			}
			entry, recs, err := decodeSeed(payload)
			if err != nil {
				readErr = err
				break loop
			}
			if entry < 0 || entry >= numEntries {
				readErr = fmt.Errorf("shard: cache seed for unknown entry %d", entry)
				break loop
			}
			// Wait for the executor to have applied this session's
			// config, then import directly: the job mid-flight sees the
			// records on its very next oracle lookup.
			ws.mu.Lock()
			gen := ws.cfgGen
			ws.mu.Unlock()
			if !ws.waitApplied(gen) {
				break loop // fatal landed; surfaced below
			}
			runner.Preseed(entry, recs)
		case msgJob:
			if !sessionActive {
				readErr = fmt.Errorf("shard: job before config")
				break loop
			}
			job, err := decodeJob(payload)
			if err != nil {
				readErr = err
				break loop
			}
			if job.Entry < 0 || job.Entry >= numEntries {
				readErr = fmt.Errorf("shard: job references unknown entry %d", job.Entry)
				break loop
			}
			if ws.fatalErr() != nil {
				break loop
			}
			outstanding.Add(1)
			cmds <- workerCmd{typ: msgJob, job: job}
		case msgEndSession:
			sessionActive = false
			cmds <- workerCmd{typ: msgEndSession}
		case msgBye:
			sawBye = true
			break loop
		default:
			readErr = fmt.Errorf("shard: unexpected message type %d", typ)
			break loop
		}
	}

	close(cmds)
	wg.Wait()

	if err := ws.fatalErr(); err != nil {
		return err
	}
	if sawBye {
		return nil
	}
	if writeErr != nil {
		return fmt.Errorf("shard: worker write: %w", writeErr)
	}
	if readErr == io.EOF {
		if !everConfigured {
			return fmt.Errorf("shard: connection closed before any session")
		}
		if n := outstanding.Load(); sessionActive || n > 0 {
			return fmt.Errorf("shard: connection closed mid-session (%d jobs outstanding)", n)
		}
		return nil // idle between sessions; orderly enough
	}
	if readErr != nil {
		return fmt.Errorf("shard: worker read: %w", readErr)
	}
	return nil
}
