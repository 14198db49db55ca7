// Package shard scales hyperparameter sweeps out across worker
// processes: a coordinator runs a session of one or more sweeps (each a
// base AIG paired with a guiding evaluator — an "entry"), partitions
// the grid points over sweepd workers, retries and re-balances on
// failure, and merges the results deterministically — indexed by job
// order, bit-identical to a local flows.Sweep of each entry.
//
// # Contract
//
// The package promises exactly what the local evaluation layers
// promise, extended over a process boundary:
//
//   - Determinism. A grid point's trajectory depends only on (base
//     graph, params, seed); every evaluation layer (cache, batching,
//     preseeding) is value-transparent. Which worker executes
//     which job — and how often a job is retried — therefore never
//     changes any result, and the coordinator's merge is byte-identical
//     to local execution. Timing fields and cache counters are the
//     only schedule-dependent values.
//   - Warm handoff. A worker session receives every base AIG exactly
//     once (as dictionary-free aig.EncodeDelta records, sent with the
//     config); every graph sent back — the per-chain best AIGs of each
//     result — travels as a delta record against its job's base, never
//     as a full graph. Stats accounts for both transfer classes so
//     tests can assert the split.
//   - Preseeding only skips work. With Options.Preseed the coordinator
//     pushes merged cache records to workers the moment they merge
//     (msgCacheSeed): the connection is full duplex, so a push lands
//     while the worker is mid-job and is imported before its next one,
//     rather than riding the next dispatch. A pushed record never
//     answers a cache lookup; it
//     may only substitute for an oracle evaluation whose result it
//     already is (eval.Cached.ImportRecords documents the adoption and
//     witnessed-collision-rejection rule). Records are scoped per
//     entry — metrics from different guiding evaluators never mix.
//   - Failure containment. Worker-side job errors are retried on other
//     workers up to HubOptions.MaxAttempts, three for Run (the job's grid
//     coordinates ride along, surfacing as JobFailedError when
//     exhausted); a lost transport requeues the in-flight job and removes
//     only that worker.
//     Options.JobTimeout arms read AND write deadlines on deadline-capable
//     transports: a worker wedged mid-computation (read) or one that
//     stopped draining its socket with the transport buffer full (write)
//     both surface as a loss instead of blocking dispatch forever. Like
//     flows.Sweep, the run completes every finishable job before
//     reporting the first failure in job order.
//   - Warm starts only skip work. Options.Store persists the merged
//     caches to an eval.Store keyed by (base-graph hash, evaluator-spec
//     hash): at start the coordinator loads each entry's stored records
//     into the merge, where the preseed path pushes them to workers
//     behind the same ImportRecords prefilter, and newly merged records
//     are flushed back periodically and at session end. A crash-damaged
//     file is truncated at the first bad frame on open — a restart may
//     forget records (costing re-evaluation) but never refuses to start
//     and never changes a result.
//
// # Topology
//
// There is one coordinator, the Hub; Run is a Hub over a fixed fleet
// with a single submission. The coordinator drives each worker over one
// connection (TCP to a cmd/sweepd daemon, or any io.ReadWriteCloser —
// tests use in-process pipes), split into independent reader and writer
// goroutines: config and bases lead, then job dispatches and cache-seed
// pushes queue on the writer while results stream back through the
// reader — uploads and pushes overlap job execution on both ends. Idle
// workers pull the next eligible job, so load balance across
// heterogeneous workers is work stealing by construction. Domain logic
// lives behind the Runner interface (flows.NewShardRunner), keeping this
// package a pure transport/scheduling layer. A session counts its
// traffic in frames (Stats.BytesSent, Stats.BytesReceived): every frame
// it queues or receives, at the size it has on the wire.
//
// The worker side (Serve) mirrors the split — its reader applies
// preseeds mid-job, an executor goroutine runs jobs, a writer streams
// results — and distinguishes how a connection ends: msgBye or EOF
// while idle between sessions is a clean exit; EOF before any session
// was configured, or with a session open or jobs outstanding, is an
// error. msgEndSession closes a session without closing the
// connection: the worker drops its decoded bases and the Runner drops
// per-session state (Runner.EndSession; cross-session retention pools
// survive), leaving the connection idle for the next session.
//
// Both ends speak protocol version 7, checked in the config message and
// in the hub hello. Version 7 dropped the incremental-evaluation policy
// and threshold from the config message, since no evaluation takes an
// incremental path any more.
//
// # Hub
//
// Run is session-scoped: the caller owns the fleet for one session. It
// builds a Hub, registers the caller's conns and then its dialed
// endpoints, submits the one session, and closes the hub when it
// resolves; the session ends each worker with msgEndSession and the
// closing hub says msgBye. Its fleet is fixed: when the last worker is
// lost with jobs unfinished, the run fails. Hub (cmd/sweephub) is the
// resident form — a daemon owning an elastic fleet of registered
// workers (RegisterWorker, sweepd -hub) that executes queued
// submissions from many clients (HubClient, msgSubmit), up to
// HubOptions.MaxSessions of them concurrently, each over a disjoint
// partition of the fleet. Workers may register at any moment: one
// admitted mid-sweep receives the running session's config, bases, and
// accumulated merged cache records before its first job — exactly as
// warm as a worker present from the start. Only a resident hub waits
// elastically: losing every worker makes its sessions wait for the next
// registration instead of failing. The hub forwards workers' result
// payloads to the submitting client verbatim (never re-encoded), so the
// byte-identity contract holds across the extra hop; with
// HubOptions.Store the hub owns the persistent warm-start store for all
// submissions.
//
// Partitions are planned by a pure policy (planPartitions) and applied
// after every scheduling event — submission arrival or completion,
// worker registration, loss, or handoff. The applied state keeps these
// invariants (partition_test.go asserts them after every event of
// randomized schedules):
//
//   - Disjointness. A worker serves exactly one session at any
//     instant, or waits in the idle pool — never both, never two.
//   - Proportional share by queue age. Sessions ordered oldest-first
//     get nonincreasing worker targets; an equal split's remainder
//     goes to the oldest. A submission never watches a younger one
//     hold more of the fleet.
//   - No starvation. With at least as many workers as sessions, every
//     session's target is at least HubOptions.MinWorkersPerSession;
//     under scarcity the oldest sessions hold the floor while the
//     youngest wait at zero (the empty-partition wait — the same
//     elastic wait as an empty fleet). A queued submission is admitted
//     within the same scheduling event that frees its capacity.
//   - Job-boundary handoffs. A session whose target shrank donates
//     workers only between jobs (sched withdrawal), never mid-job; the
//     donated worker's per-session state is dropped (msgEndSession)
//     and the recipient re-admits it through the full warm-start
//     preamble. Stats.Handoffs counts the donations.
//
// Because rebalancing only moves workers — and every evaluation layer
// is value-transparent — the partition plan never changes any result:
// a submission's bytes are identical whether the hub ran it alone,
// concurrently, or across any sequence of mid-sweep rebalances.
//
// Workers export their memo caches as eval.CacheRecord streams; the
// coordinator merges them into Stats.MergedCaches (one map per entry),
// the cluster-wide view of evaluated structures. Stats.CacheDuplicates
// measures cross-shard redundant evaluation; Options.Preseed is the
// mechanism that recovers it.
package shard
