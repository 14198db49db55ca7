package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"aigtimer/internal/aig"
	"aigtimer/internal/flows"
)

const (
	// warmReps is the number of untimed repetitions before the timed
	// ones. The first sweeps of a process are 10-30% slower than later
	// ones: the transform layer's process-wide synthesis-program caches
	// fill with the cones the sweeps meet, the heap grows to its working
	// size, and a resident fleet runs its first sessions.
	warmReps = 2
	// minReps is the fewest timed repetitions a run makes, however long
	// they take; the run keeps repeating while the next one is expected
	// to end within --seconds.
	minReps = 3
)

// outDir receives the run record and, for traced runs, the spans.
const outDir = ".bench_out"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: gt-suite | ml-suite | hub-mixed")
	seed := fl.Int64("seed", defaultSeed, "input seed: repetitions sweep seeds derived from it (see sweepSeed)")
	seconds := fl.Float64("seconds", 10, "measuring time of the timed repetitions, after set-up and warm-up")
	trace := fl.Int("trace", 0, "1 adds a traced repetition and reports per-layer metrics instead of end-to-end ones")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q or trace %d\n", *name, *trace)
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	res, rec, err := measure(w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	if err == nil {
		err = emit(filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", w.name, *seed, *trace)), res, rec, stdout, stderr)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	return 0
}

// emit writes the record (and a traced run's spans) under the path
// prefix base, then prints the record without its digests and, as the
// last line, the result.
func emit(base string, res *result, rec *record, stdout, stderr io.Writer) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if rec.tracer != nil {
		if err := writeTrace(base+"-spans.json", rec.tracer, map[string]any{"autotune": rec.Tune}); err != nil {
			return err
		}
	}
	recJSON, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+"-record.json", recJSON, 0o644); err != nil {
		return err
	}
	for _, f := range rec.Failures {
		fmt.Fprintf(stderr, "perfbench: FAIL %s\n", f)
	}
	short := *rec
	short.Digests, short.HubCounterDiffs = nil, nil
	shortJSON, err := json.Marshal(short)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "{\"record\": %s}\n%s\n", shortJSON, out)
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is everything a run measured besides its metrics: the machine,
// every sample behind each median, and the work each repetition did, so
// a timing change splits into "less work" against "same work, faster".
type record struct {
	Workload  string       `json:"workload"`
	Seed      int64        `json:"seed"`
	Machine   machine      `json:"machine"`
	SetupS    []float64    `json:"setup_s"`
	SetupCPUS []float64    `json:"setup_cpu_s"`
	Warmup    []repRecord  `json:"warmup"`
	Reps      []repRecord  `json:"reps"`
	Repeat    *repRecord   `json:"repeat,omitempty"` // untraced twin of Traced
	Traced    *repRecord   `json:"traced,omitempty"`
	Tune      []tuneRecord `json:"autotune,omitempty"`
	Digests   []string     `json:"digests"` // "key digest" per point of each sub-seed's first sweep
	Failures  []string     `json:"failures,omitempty"`
	// HubCounterDiffs lists hub-mixed points equal to the local run in
	// everything but Evals/SpeculativeEvals (see hubMatchesLocal).
	HubCounterDiffs []string `json:"hub_counter_diffs,omitempty"`

	tracer *tracer
}

// repRecord is one repetition's time and work. The eval counters come
// from anneal.Result and are approximate when grid points share a
// stack concurrently; Evals and SpeculativeEvals are exact.
type repRecord struct {
	SubSeed   int     `json:"sub_seed"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	// StealShare is the share of the machine's CPU time stolen by the
	// hypervisor during the repetition: wall times inflate with it while
	// CPU times do not.
	StealShare  float64 `json:"steal_share"`
	Points      int     `json:"points"`
	Evals       int64   `json:"evals"`
	SpecEvals   int64   `json:"spec_evals"`
	CacheHits   int64   `json:"cache_hits"`
	CacheMisses int64   `json:"cache_misses"`
	FullEvals   int64   `json:"full_evals"`
	DeltaEvals  int64   `json:"delta_evals"`
	MoveS       float64 `json:"move_s"`
	AllocMB     float64 `json:"alloc_mb"`
	Mallocs     uint64  `json:"mallocs"`
	GCCycles    uint32  `json:"gc_cycles"`
	// Hub submissions, in group order.
	TurnaroundS []float64     `json:"turnaround_s,omitempty"`
	Shard       []shardRecord `json:"shard,omitempty"`
}

type shardRecord struct {
	BytesSent, BytesReceived, BaseBytes, DeltaBytes, SeedBytes int64
	JobSends, Requeues, Handoffs, CacheDuplicates              int
	PrefilterHits                                              int64
}

type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

// measure sets the workload up, times its repetitions, checks every
// result, and computes the metrics.
func measure(w *workload, seed int64, budget time.Duration, traced bool) (*result, *record, error) {
	rec := &record{Workload: w.name, Seed: seed, Machine: machineInfo()}
	chk := &checker{seed: seed, refs: map[*aig.AIG]*reference{}, digests: map[string]string{}, trajectories: map[string]string{}}

	var inst instance
	var sts []setupStats
	for i := 0; i < w.setups; i++ {
		if inst != nil {
			inst.close()
		}
		runtime.GC()
		start, c0 := time.Now(), cpuTime()
		in, st, err := w.setup()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		rec.SetupS = append(rec.SetupS, time.Since(start).Seconds())
		rec.SetupCPUS = append(rec.SetupCPUS, (cpuTime() - c0).Seconds())
		inst, sts = in, append(sts, st)
		if !bytes.Equal(st.models, sts[0].models) {
			chk.fail("set-up %d trained different models than set-up 0", i)
		}
	}
	defer inst.close()

	// Repetition r sweeps sub-seed r: each is a new input, as a user's
	// next sweep is, and a run's medians cover as many inputs as it has
	// repetitions. The warm-up repetitions are checked and kept in the
	// record; the timed ones follow until --seconds is spent.
	ok := true
	for r := 0; ok && r < warmReps; r++ {
		res, rr, err := timedRep(inst, sweepSeed(seed, r))
		if err != nil {
			return nil, nil, err
		}
		rr.SubSeed = r
		rec.Warmup = append(rec.Warmup, rr)
		chk.rep(inst.groups(), res, r)
		ok = !hasError(res)
	}
	begin := time.Now()
	for r := warmReps; ok && (len(rec.Reps) < minReps ||
		time.Since(begin)+time.Duration(rec.Reps[len(rec.Reps)-1].WallS*float64(time.Second)) <= budget); r++ {
		res, rr, err := timedRep(inst, sweepSeed(seed, r))
		if err != nil {
			return nil, nil, err
		}
		rr.SubSeed = r
		rec.Reps = append(rec.Reps, rr)
		chk.rep(inst.groups(), res, r)
		ok = !hasError(res)
	}
	if h, isHub := inst.(*hubInstance); isHub && ok {
		chk.hubMatchesLocal(h)
	}

	// The traced repetition sweeps the last repetition's sub-seed again
	// and must reproduce its digests. A repeated input runs faster than a
	// new one (its synthesis programs are all cached), so the tracing
	// overhead is measured against an untraced repeat made just after it,
	// so warming left in the process overstates the overhead rather than
	// hiding it.
	var spans []span
	if traced {
		k := len(rec.Warmup) + len(rec.Reps) - 1
		rec.tracer = newTracer()
		root := rec.tracer.open("workload:"+w.name, -1)
		r, rr, err := timedRepTraced(inst, sweepSeed(seed, k), rec.tracer, root)
		if err != nil {
			return nil, nil, err
		}
		rec.tracer.close(root)
		rr.SubSeed = k
		rec.Traced, rec.Tune = &rr, r.tune
		chk.rep(inst.groups(), r, k)
		spans = rec.tracer.snapshot()
		res, again, err := timedRep(inst, sweepSeed(seed, k))
		if err != nil {
			return nil, nil, err
		}
		again.SubSeed = k
		rec.Repeat = &again
		chk.rep(inst.groups(), res, k)
	}
	rec.Digests = chk.digestList()
	rec.Failures = chk.failures
	rec.HubCounterDiffs = chk.counterDiffs

	res := &result{Correct: chk.failed == 0, Attempted: chk.attempted, Failed: chk.failed}
	if traced {
		res.Metrics = layerMetrics(rec, sts, spans)
	} else {
		res.Metrics = endToEndMetrics(rec, chk)
	}
	return res, rec, nil
}

func hasError(r *repResult) bool {
	for _, err := range r.errs {
		if err != nil {
			return true
		}
	}
	return false
}

// timedRep runs one untraced repetition and records its time and
// work. Returning freed memory to the OS before it makes each
// repetition's peak RSS its own, not left over from the previous one.
func timedRep(inst instance, seed int64) (*repResult, repRecord, error) {
	debug.FreeOSMemory()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rss := startRSS()
	s0, t0 := hostSteal()
	c0 := cpuTime()
	r, err := inst.rep(seed, nil, -1)
	c1 := cpuTime()
	s1, t1 := hostSteal()
	peak := rss.finish()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, repRecord{}, err
	}
	rr := work(r)
	rr.CPUS = (c1 - c0).Seconds()
	rr.PeakRSSMB = peak
	if t1 > t0 {
		rr.StealShare = float64(s1-s0) / float64(t1-t0)
	}
	rr.AllocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	rr.Mallocs = m1.Mallocs - m0.Mallocs
	rr.GCCycles = m1.NumGC - m0.NumGC
	return r, rr, nil
}

func timedRepTraced(inst instance, seed int64, tr *tracer, root int) (*repResult, repRecord, error) {
	debug.FreeOSMemory()
	r, err := inst.rep(seed, tr, root)
	if err != nil {
		return nil, repRecord{}, err
	}
	return r, work(r), nil
}

// work sums the counters the program returns for one repetition.
func work(r *repResult) repRecord {
	rr := repRecord{WallS: r.wall.Seconds()}
	for _, rs := range r.results {
		for _, e := range rs {
			for _, p := range e.Points {
				rr.Points++
				if p.Result == nil {
					continue
				}
				rr.Evals += int64(p.Result.Evals)
				rr.SpecEvals += int64(p.Result.SpeculativeEvals)
				rr.CacheHits += p.Result.CacheHits
				rr.CacheMisses += p.Result.CacheMisses
				rr.FullEvals += p.Result.FullEvals
				rr.DeltaEvals += p.Result.DeltaEvals
				rr.MoveS += p.Result.MoveTime.Seconds()
			}
		}
	}
	for i, st := range r.stats {
		rr.TurnaroundS = append(rr.TurnaroundS, r.turnaround[i].Seconds())
		if st == nil {
			rr.Shard = append(rr.Shard, shardRecord{})
			continue
		}
		rr.Shard = append(rr.Shard, shardRecord{
			BytesSent: st.BytesSent, BytesReceived: st.BytesReceived,
			BaseBytes: st.BaseBytes, DeltaBytes: st.DeltaBytes, SeedBytes: st.SeedBytes,
			JobSends: st.JobSends, Requeues: st.Requeues, Handoffs: st.Handoffs,
			CacheDuplicates: st.CacheDuplicates, PrefilterHits: st.PrefilterHits,
		})
	}
	return rr
}

// checker accumulates points attempted and failed. A point fails when
// its suite call errs, its best graph is not equivalent to its input
// design, or its digest differs from the first sweep of the same
// sub-seed (the traced repetition repeats one), from the golden digest
// (the default seed's own sweep, sub-seed 0), or from a local run (hub
// submissions). It also sums the ground-truth QoR of every point of the
// sub-seeds below qorSubSeeds, which every run sweeps.
type checker struct {
	seed              int64
	refs              map[*aig.AIG]*reference
	digests           map[string]string // first repetition of each sub-seed, by point key
	trajectories      map[string]string // trajectoryDigest of the same points
	counterDiffs      []string          // hub points whose only difference from local is eval counts
	attempted, failed int
	failures          []string

	qorDelay, qorArea float64
	qorPoints         int
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// pointKey names grid point i of an entry swept at sub-seed k.
func pointKey(prefix string, k int, entry string, i int) string {
	return fmt.Sprintf("%s/%d/%s/%d", prefix, k, entry, i)
}

// qorSubSeeds is the number of sub-seeds the QoR metrics average over:
// the warm-up and the fewest timed repetitions, so that the QoR of a
// seed does not depend on how many repetitions fit in a run.
const qorSubSeeds = warmReps + minReps

// rep checks one repetition at sub-seed k. The first sweep of a
// sub-seed records its digests and is checked for equivalence; a repeat
// must reproduce its digests (and is then byte-identical to it).
func (c *checker) rep(gs []group, r *repResult, k int) {
	for gi, g := range gs {
		n := len(g.entries) * len(sweepConfig(c.seed).Grid())
		c.attempted += n
		if err := r.errs[gi]; err != nil {
			c.failed += n - 1
			c.fail("%s: %v", g.name, err)
			continue
		}
		for ei, e := range r.results[gi] {
			entry := g.entries[ei]
			for i, p := range e.Points {
				key := pointKey(g.name, k, e.Name, i)
				d := pointDigest(p)
				if prev, seen := c.digests[key]; seen {
					if prev != d {
						c.fail("%s: digest %s, first repetition %s", key, d, prev)
					}
					continue
				}
				c.digests[key] = d
				c.trajectories[key] = trajectoryDigest(p)
				if k < qorSubSeeds {
					c.qorDelay += p.TrueDelayPS
					c.qorArea += p.TrueAreaUM2
					c.qorPoints++
				}
				if p.Result == nil {
					c.fail("%s: no result", key)
					continue
				}
				ref := c.refs[entry.G]
				if ref == nil {
					ref = newReference(entry.G)
					c.refs[entry.G] = ref
				}
				if err := ref.equivalent(p.Result.Best); err != nil {
					c.fail("%s: best graph not equivalent to %s: %v", key, entry.Name, err)
					continue
				}
				if c.seed == defaultSeed && k == 0 {
					if want := golden[pointKey(g.golden, k, e.Name, i)]; want != d {
						c.fail("%s: digest %s, golden %q", key, d, want)
					}
				}
			}
		}
	}
}

// hubMatchesLocal reruns each hub submission of sub-seed 0 as a local
// SweepSuite. The hub's trajectories must be identical to the local
// ones: a point whose trajectory digest differs fails. The full
// canonical forms may still differ in Evals and SpeculativeEvals,
// because SweepSuiteSharded tunes the batch bounds once against the
// first entry while SweepSuite tunes every entry; those points are
// counted in counterDiffs, not failed.
func (c *checker) hubMatchesLocal(h *hubInstance) {
	cfg := sweepConfig(sweepSeed(c.seed, 0))
	for _, g := range h.gs {
		rs, err := flows.SweepSuite(g.entries, h.lib, cfg)
		if err != nil {
			c.fail("%s: local reference: %v", g.name, err)
			continue
		}
		for _, e := range rs {
			for i, p := range e.Points {
				key := pointKey(g.name, 0, e.Name, i)
				if c.digests[key] == pointDigest(p) {
					continue
				}
				if c.trajectories[key] != trajectoryDigest(p) {
					c.fail("%s: hub trajectory %s, local %s", key, c.trajectories[key], trajectoryDigest(p))
					continue
				}
				c.counterDiffs = append(c.counterDiffs, key)
			}
		}
	}
}

func (c *checker) digestList() []string {
	out := make([]string, 0, len(c.digests))
	for k, d := range c.digests {
		out = append(out, k+" "+d)
	}
	sort.Strings(out)
	return out
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssEvery is the resident-set sampling period of a timed repetition.
const rssEvery = 5 * time.Millisecond

// rssSampler tracks the peak resident set size while a repetition runs.
type rssSampler struct {
	stop, done chan struct{}
	peak       int64 // bytes; owned by the sampling goroutine until done
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			s.peak = max(s.peak, residentBytes())
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in MiB. Without
// /proc/self/statm it falls back to the process's peak from getrusage.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	peak := max(s.peak, residentBytes())
	if peak == 0 {
		var ru syscall.Rusage
		if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
			peak = ru.Maxrss << 10 // Linux reports KiB
		}
	}
	return float64(peak) / (1 << 20)
}

// hostSteal returns the machine's cumulative steal and total CPU ticks
// from /proc/stat (zeros if unavailable).
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}

// residentBytes is the current resident set size (0 if unavailable).
func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

func machineInfo() machine {
	m := machine{
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GoVersion: runtime.Version(), Commit: "unknown",
		SourceHash: sourceHash("."),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				m.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					m.Commit += "+modified"
				}
			}
		}
	}
	return m
}

// sourceHash digests every Go source and go.mod file under root (hidden
// directories skipped), identifying the code when no commit is stamped.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
