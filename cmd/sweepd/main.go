// Command sweepd is the distributed-sweep worker daemon: it serves
// shard-protocol sessions (see internal/shard), executing sweep grid
// points for a remote coordinator — flows.SweepSharded, wired into
// aigopt -sweep -shard and experiments -shard.
//
// Each accepted connection is one independent session with its own
// evaluation stack (the memo cache over the evaluator), configured by the
// coordinator's opening message; the session's base AIG arrives once
// and all result graphs return as delta records against it. Results are
// bit-identical to local execution of the same grid points, so a
// coordinator may treat any mix of local and sweepd computation as one
// deterministic sweep.
//
// Usage:
//
//	sweepd [-listen 127.0.0.1:9610] [-retain-mb 64] [-v]
//	sweepd -hub 127.0.0.1:9620 [-name w0] [-retain-mb 64] [-v]
//
// The daemon prints "sweepd listening on <addr>" once bound (with
// -listen :0, that line is how callers learn the port). It serves until
// killed; a coordinator losing this worker mid-sweep simply reassigns
// its grid points elsewhere.
//
// With -hub the daemon inverts the connection direction: instead of
// listening, it registers with a resident sweephub coordinator and
// serves whatever sessions the hub feeds it, dropping per-session state
// at each session boundary. The connection is re-established (after a
// short backoff) whenever it drops, so a restarted hub reassembles its
// fleet without operator action; registering mid-sweep is fine — the
// hub admits late joiners with the running session's full warm start.
// A hub running several submissions concurrently may also hand the
// worker between sessions mid-sweep (a rebalance); to the daemon that
// is indistinguishable from a session boundary followed by a late
// admission.
//
// With -retain-mb the daemon keeps evaluation records across sessions
// in an in-memory LRU pool (bounded to that many megabytes): a later
// session sweeping a (design, evaluator) pair the daemon has served
// before preseeds its fresh cache from the pool, behind the same
// prefilter coordinator preseeds use — retained records only ever skip
// oracle calls, so results stay bit-identical to a cold worker's.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sync/atomic"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/eval"
	"aigtimer/internal/flows"
	"aigtimer/internal/shard"
)

func main() {
	var (
		listen   = flag.String("listen", "127.0.0.1:9610", "address to serve shard sessions on (use :0 for an ephemeral port)")
		hub      = flag.String("hub", "", "register with a sweephub coordinator at this address instead of listening")
		name     = flag.String("name", "", "worker display name in hub logs and stats (default: the hub-side remote address)")
		maxJobs  = flag.Int("max-jobs", 0, "exit before starting this many+1 jobs (0 = unlimited; a chaos/testing knob simulating a worker crash mid-job)")
		retainMB = flag.Int("retain-mb", 0, "retain evaluation records across sessions in an LRU pool of this many megabytes (0 = no retention)")
		verbose  = flag.Bool("v", false, "log per-session and per-job activity")
	)
	flag.Parse()
	log.SetPrefix("sweepd: ")
	log.SetFlags(log.Ltime | log.Lmicroseconds)

	var pool0 *eval.RecordPool
	if *retainMB > 0 {
		pool0 = eval.NewRecordPool(int64(*retainMB) << 20)
	}

	if *hub != "" {
		serveHub(*hub, *name, pool0, maxJobs, verbose)
		return
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen %s: %v", *listen, err)
	}
	fmt.Printf("sweepd listening on %s\n", ln.Addr())

	pool := pool0
	var jobs atomic.Int64
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatalf("accept: %v", err)
		}
		if *verbose {
			log.Printf("session from %s", conn.RemoteAddr())
		}
		go func(conn net.Conn) {
			runner := flows.NewShardRunner()
			if pool != nil {
				runner = flows.NewShardRunnerPooled(pool)
			}
			err := shard.Serve(conn, &crashableRunner{Runner: runner, jobs: &jobs, max: *maxJobs, verbose: *verbose})
			if *verbose || err != nil {
				log.Printf("session %s ended: %v", conn.RemoteAddr(), err)
			}
			if *verbose && pool != nil {
				keys, recs, bytes := pool.Stats()
				log.Printf("retention pool: %d keys, %d records, %d bytes", keys, recs, bytes)
			}
		}(conn)
	}
}

// serveHub registers with a sweephub and serves its sessions over one
// resident connection, re-dialing with a short backoff whenever the
// connection drops (hub restart, network blip). The -max-jobs crash
// knob counts jobs across reconnects, same as across sessions.
func serveHub(addr, name string, pool *eval.RecordPool, maxJobs *int, verbose *bool) {
	var jobs atomic.Int64
	for {
		conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
		if err != nil {
			log.Printf("hub %s: dial: %v (retrying)", addr, err)
			time.Sleep(time.Second)
			continue
		}
		fmt.Printf("sweepd registered with hub %s\n", addr)
		runner := flows.NewShardRunner()
		if pool != nil {
			runner = flows.NewShardRunnerPooled(pool)
		}
		err = shard.RegisterWorker(conn, name, &crashableRunner{Runner: runner, jobs: &jobs, max: *maxJobs, verbose: *verbose})
		if err != nil {
			log.Printf("hub %s: session ended: %v (reconnecting)", addr, err)
		} else {
			log.Printf("hub %s: connection closed cleanly (reconnecting)", addr)
		}
		time.Sleep(time.Second)
	}
}

// crashableRunner wraps the production runner with the -max-jobs crash
// knob and optional per-job logging. The crash fires before the job
// runs, so the coordinator sees a worker dying with a job in flight —
// the exact scenario its requeue logic exists for.
type crashableRunner struct {
	shard.Runner
	jobs    *atomic.Int64
	max     int
	verbose bool
}

func (r *crashableRunner) Configure(cfg shard.RunConfig) error {
	if r.verbose {
		log.Printf("session config: %d entries, batch=%d workers=%d",
			len(cfg.Entries), cfg.Base.BatchSize, cfg.Base.Workers)
	}
	return r.Runner.Configure(cfg)
}

func (r *crashableRunner) Run(base *aig.AIG, job shard.JobSpec) (*shard.WorkResult, error) {
	if n := r.jobs.Add(1); r.max > 0 && n > int64(r.max) {
		log.Printf("reached -max-jobs %d, crashing with job %d in flight", r.max, job.Index)
		os.Exit(3)
	}
	if r.verbose {
		log.Printf("job %d: w_delay=%g w_area=%g decay=%g seed+%d",
			job.Index, job.DelayWeight, job.AreaWeight, job.Decay, job.SeedOffset)
	}
	return r.Runner.Run(base, job)
}
