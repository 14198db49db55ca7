package flows

import (
	"bytes"
	"path/filepath"
	"testing"

	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/eval"
	"aigtimer/internal/shard"
)

// TestSweepSuiteStoreWarmStart: local suite sweeps against a persistent
// store — absent, cold, warm — are byte-identical, the warm run grows
// the file by nothing (its knowledge is adopted, not re-derived), and a
// sharded session warm-starts from the records a local suite flushed,
// proving both paths derive the same (design, evaluator) store key.
func TestSweepSuiteStoreWarmStart(t *testing.T) {
	g := testAIG(61)
	lib := cell.Builtin()
	cfg := shardTestSweepConfig(41)
	entries := []SuiteEntry{
		{Name: "gt", G: g, Eval: NewGroundTruth(lib)},
		{Name: "proxy", G: g, Eval: Proxy{}}, // cheap: uncached, stores nothing
	}
	want, err := SweepSuite(entries, lib, cfg) // store-absent reference
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "suite.store")
	runLocal := func(label string) {
		t.Helper()
		s, err := eval.OpenStore(path)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		c := cfg
		c.Store = s
		got, err := SweepSuite(entries, lib, c)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for e := range entries {
			if !bytes.Equal(CanonicalizeSweep(want[e].Points), CanonicalizeSweep(got[e].Points)) {
				t.Fatalf("%s: entry %q differs from the store-absent reference", label, entries[e].Name)
			}
		}
	}
	runLocal("cold")

	// The cold run persisted the ground-truth entry's records and nothing
	// for the uncached proxy entry.
	s, err := eval.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	persisted := s.Len()
	if persisted == 0 || s.NumKeys() != 1 {
		t.Fatalf("cold suite stored %d records across %d keys, want >0 across 1", persisted, s.NumKeys())
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	runLocal("warm")

	// Warm knowledge is reused, not re-stored: adopted records never
	// enter the insert log, so a run that discovered nothing new appends
	// nothing.
	s, err = eval.OpenStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != persisted {
		t.Fatalf("warm run grew the store: %d -> %d records", persisted, s.Len())
	}

	// The same file warm-starts a sharded session: the coordinator
	// computes the key the local suite wrote under and pushes the records
	// to its workers.
	c := cfg
	c.Store = s
	conns, wait := loopbackWorkers(2)
	got, st, err := SweepSuiteSharded(entries, lib, c, ShardOptions{Conns: conns})
	if err != nil {
		t.Fatal(err)
	}
	wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st.StoreLoaded != persisted {
		t.Fatalf("sharded session loaded %d of the local suite's %d records", st.StoreLoaded, persisted)
	}
	if st.PrefilterHits == 0 {
		t.Fatal("warm-started sharded session reports no prefilter hits")
	}
	for e := range entries {
		if !bytes.Equal(CanonicalizeSweep(want[e].Points), CanonicalizeSweep(got[e].Points)) {
			t.Fatalf("sharded warm start: entry %q differs", entries[e].Name)
		}
	}
}

// TestSweepSuiteStoreKeyedByLibrary: a store warmed by a ground-truth
// sweep under one library must not warm-start the same design swept
// under another library, whose signoff gives other metrics. The run
// over the tripled-area library must be byte-identical to a store-free
// run, and its records must land under a key of their own.
func TestSweepSuiteStoreKeyedByLibrary(t *testing.T) {
	g := testAIG(64)
	cfg := shardTestSweepConfig(43)
	builtin, tripled := cell.Builtin(), scaledLibrary(t, 3)
	entries := func(lib *cell.Library) []SuiteEntry {
		return []SuiteEntry{{Name: "gt", G: g, Eval: NewGroundTruth(lib)}}
	}
	want, err := SweepSuite(entries(tripled), tripled, cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, err := eval.OpenStore(filepath.Join(t.TempDir(), "lib.store"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := cfg
	c.Store = s
	if _, err := SweepSuite(entries(builtin), builtin, c); err != nil {
		t.Fatal(err)
	}
	got, err := SweepSuite(entries(tripled), tripled, c)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(CanonicalizeSweep(want[0].Points), CanonicalizeSweep(got[0].Points)) {
		t.Fatal("a store warmed under the builtin library changed a sweep under the tripled-area library")
	}
	if s.NumKeys() != 2 {
		t.Fatalf("store holds %d keys after sweeps under two libraries, want 2", s.NumKeys())
	}
}

// TestPooledRunnerKeysByLibrary: a resident worker's record pool must
// not carry ground-truth records from a session under one library into
// a session under another. One pooled runner sweeps EX54 under the
// builtin library (written out, so it crosses the wire as text) and
// then under the same library with every area tripled; the second
// session must match a fresh runner's point for point.
func TestPooledRunnerKeysByLibrary(t *testing.T) {
	d, err := bench.ByName("EX54")
	if err != nil {
		t.Fatal(err)
	}
	g := d.Build()
	libText := func(lib *cell.Library) []byte {
		var buf bytes.Buffer
		if err := cell.WriteLibrary(&buf, lib); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cfg := shardTestSweepConfig(17)
	session := func(r shard.Runner, lib []byte) []byte {
		t.Helper()
		rc := shard.RunConfig{
			Base:    cfg.Base,
			Entries: []shard.EntrySpec{{Base: 0, Eval: shard.EvalSpec{Kind: "ground-truth"}}},
			Library: lib,
		}
		if err := r.Configure(rc); err != nil {
			t.Fatal(err)
		}
		var out []byte
		for _, pt := range cfg.Grid() {
			wr, err := r.Run(g, shard.JobSpec{
				Index: pt.Index, DelayWeight: pt.DelayWeight, AreaWeight: pt.AreaWeight,
				Decay: pt.Decay, SeedOffset: pt.SeedOffset,
			})
			if err != nil {
				t.Fatal(err)
			}
			r.CacheSnapshot(0)
			out = SweepPoint{
				DelayWeight: pt.DelayWeight, AreaWeight: pt.AreaWeight, Decay: pt.Decay,
				Result: wr.Result, TrueDelayPS: wr.TrueDelayPS, TrueAreaUM2: wr.TrueAreaUM2,
			}.AppendCanonical(out)
		}
		r.EndSession()
		return out
	}
	tripled := libText(scaledLibrary(t, 3))
	pooled := NewShardRunnerPooled(eval.NewRecordPool(0))
	session(pooled, libText(cell.Builtin()))
	if got, want := session(pooled, tripled), session(NewShardRunner(), tripled); !bytes.Equal(got, want) {
		t.Fatal("records retained from a session under the builtin library changed a session under the tripled-area library")
	}
}
