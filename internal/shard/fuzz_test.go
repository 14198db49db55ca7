package shard

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"aigtimer/internal/aig"
	"aigtimer/internal/eval"
)

// FuzzDecodeConfig feeds arbitrary bytes to the config decoder, the
// first message a worker reads from its coordinator. decodeConfig must
// return an error or a config and never panic; a config it returns must
// re-encode stably (encode, decode, encode again gives the same bytes —
// bytes rather than values, since a fuzzed float may be NaN); and
// decoding may allocate no more than a constant factor of the input.
func FuzzDecodeConfig(f *testing.F) {
	f.Add(encodeConfig(roundTripConfig()))
	f.Add(encodeConfig(withSharedSpec(roundTripConfig())))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cfg, err := decodeConfig(data)
		runtime.ReadMemStats(&after)
		decodeAllocBound(t, len(data), &before, &after)
		if err != nil {
			return
		}
		first := encodeConfig(cfg)
		again, err := decodeConfig(first)
		if err != nil {
			t.Fatalf("re-decoding an encoded config failed: %v", err)
		}
		if second := encodeConfig(again); !bytes.Equal(first, second) {
			t.Fatalf("config encoding not stable:\n%x\n%x", first, second)
		}
	})
}

// decodeAllocBound fails t when decoding n bytes grew the heap's
// cumulative allocation from before to after by more than a constant
// factor of the input.
func decodeAllocBound(t *testing.T, n int, before, after *runtime.MemStats) {
	t.Helper()
	if grown := after.TotalAlloc - before.TotalAlloc; grown > 256*uint64(n)+64<<10 {
		t.Fatalf("decoding %d bytes allocated %d bytes", n, grown)
	}
}

// encodeSubmitted encodes a submission the way a client does.
func encodeSubmitted(t testing.TB, bases []*aig.AIG, cfg RunConfig, jobs []JobSpec) []byte {
	t.Helper()
	payloads := make([][]byte, len(bases))
	for i, g := range bases {
		p, err := encodeBase(uint32(i), g)
		if err != nil {
			t.Fatalf("base %d does not encode: %v", i, err)
		}
		payloads[i] = p
	}
	return encodeSubmit(encodeConfig(cfg), payloads, jobs)
}

// FuzzDecodeSubmit feeds arbitrary bytes to the submit decoder, which
// reads whatever a client the hub accepted sends. decodeSubmit must
// return an error or a submission and never panic; a submission it
// returns must re-encode stably; and decoding may allocate no more than
// a constant factor of the input.
func FuzzDecodeSubmit(f *testing.F) {
	for _, seed := range []struct {
		bases []*aig.AIG
		cfg   RunConfig
		jobs  []JobSpec
	}{
		{[]*aig.AIG{testAIG(13)}, testConfig(), testJobs(3)},
		{[]*aig.AIG{testAIG(14), testAIG(15)}, withSharedSpec(roundTripConfig()), testJobs(1)},
	} {
		f.Add(encodeSubmitted(f, seed.bases, seed.cfg, seed.jobs))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		bases, cfg, jobs, err := decodeSubmit(data)
		runtime.ReadMemStats(&after)
		decodeAllocBound(t, len(data), &before, &after)
		if err != nil {
			return
		}
		first := encodeSubmitted(t, bases, cfg, jobs)
		bases, cfg, jobs, err = decodeSubmit(first)
		if err != nil {
			t.Fatalf("re-decoding an encoded submission failed: %v", err)
		}
		if second := encodeSubmitted(t, bases, cfg, jobs); !bytes.Equal(first, second) {
			t.Fatalf("submit encoding not stable:\n%x\n%x", first, second)
		}
	})
}

// encodeDecoded re-encodes what decodeResult returned, the way a worker
// encodes a result.
func encodeDecoded(t *testing.T, base *aig.AIG, jr JobResult, recs []eval.CacheRecord, wire resultWire) []byte {
	t.Helper()
	wr := &WorkResult{Result: jr.Result, TrueDelayPS: jr.TrueDelayPS, TrueAreaUM2: jr.TrueAreaUM2}
	cs := eval.CacheStats{PrefilterHits: wire.prefilterHits, PrefilterRejected: wire.prefilterRejected}
	b, err := encodeResult(base, jr.Index, wr, recs, cs)
	if err != nil {
		t.Fatalf("a decoded result does not re-encode: %v", err)
	}
	return b
}

// FuzzDecodeResult feeds arbitrary bytes to the result decoder, which
// reads whatever a worker sends, decoded against the job's base.
// decodeResult must return an error or a result and never panic; a
// result it returns must re-encode stably; and decoding may allocate no
// more than a constant factor of the input.
func FuzzDecodeResult(f *testing.F) {
	base := testAIG(16)
	r := newFakeRunner()
	if err := r.Configure(testConfig()); err != nil {
		f.Fatal(err)
	}
	for _, j := range testJobs(2) {
		wr, err := r.Run(base, j)
		if err != nil {
			f.Fatal(err)
		}
		b, err := encodeResult(base, j.Index, wr, r.CacheSnapshot(j.Entry), r.CacheStats())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		jr, recs, wire, err := decodeResult(base, data)
		runtime.ReadMemStats(&after)
		decodeAllocBound(t, len(data), &before, &after)
		if err != nil {
			return
		}
		first := encodeDecoded(t, base, jr, recs, wire)
		jr, recs, wire, err = decodeResult(base, first)
		if err != nil {
			t.Fatalf("re-decoding an encoded result failed: %v", err)
		}
		if second := encodeDecoded(t, base, jr, recs, wire); !bytes.Equal(first, second) {
			t.Fatalf("result encoding not stable:\n%x\n%x", first, second)
		}
	})
}

// FuzzDecodeSeed feeds arbitrary bytes to the cache-seed decoder, which
// reads the preseed pushes a worker receives from its coordinator.
// decodeSeed must return an error or an entry and its records and never
// panic; what it returns must re-encode stably; and decoding may
// allocate no more than a constant factor of the input. The seeds stay
// a few records long: the fuzzer minimizes every input that finds new
// coverage, at a cost that grows with the square of its length.
func FuzzDecodeSeed(f *testing.F) {
	f.Add(encodeSeed(0, []eval.CacheRecord{
		{FP: 1, SH: 2, M: eval.Metrics{DelayPS: 310, AreaUM2: 40}},
		{FP: 3, SH: 4, M: eval.Metrics{DelayPS: 290, AreaUM2: 44}},
	}))
	f.Add(encodeSeed(3, nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		entry, recs, err := decodeSeed(data)
		runtime.ReadMemStats(&after)
		decodeAllocBound(t, len(data), &before, &after)
		if err != nil {
			return
		}
		first := encodeSeed(entry, recs)
		entry, recs, err = decodeSeed(first)
		if err != nil {
			t.Fatalf("re-decoding an encoded seed failed: %v", err)
		}
		if second := encodeSeed(entry, recs); !bytes.Equal(first, second) {
			t.Fatalf("seed encoding not stable:\n%x\n%x", first, second)
		}
	})
}

// FuzzDecodeSubmitDone feeds arbitrary bytes to the submission-outcome
// decoder, which reads the stats frame a client receives from the hub.
// decodeSubmitDone must return an error or an outcome and never panic;
// an outcome it returns must re-encode stably; and decoding may
// allocate no more than a constant factor of the input.
func FuzzDecodeSubmitDone(f *testing.F) {
	st := &Stats{
		BaseSends: 2, BaseBytes: 900, DeltaRecords: 6, DeltaBytes: 1200,
		JobSends: 6, Retries: 1, Requeues: 1, WorkerLosses: 1, Handoffs: 1,
		QueueDepth: 1, BytesSent: 3000, BytesReceived: 2500,
		CacheRecords: 5, CacheDuplicates: 1, SeedPushes: 2, SeedRecords: 4,
		SeedBytes: 160, PrefilterHits: 3, PrefilterRejected: 1,
		StoreLoaded: 2, StoreFlushed: 3,
		MergedCaches: []map[eval.CacheKey]eval.Metrics{
			{{FP: 1, SH: 2}: {DelayPS: 310, AreaUM2: 40}, {FP: 3, SH: 4}: {DelayPS: 290, AreaUM2: 44}, {FP: 5, SH: 6}: {DelayPS: 300, AreaUM2: 41}},
			{},
			{{FP: 7, SH: 8}: {DelayPS: 120, AreaUM2: 9}, {FP: 7, SH: 9}: {DelayPS: 125, AreaUM2: 8}},
		},
		Workers: []WorkerStats{
			{Name: "conn#0", Jobs: 4, PrefilterHits: 2},
			{Name: "127.0.0.1:7001", Jobs: 2, Lost: true, PrefilterHits: 1, PrefilterRejected: 1},
		},
	}
	failed := &JobFailedError{Job: testJobs(3)[1], Attempts: 3, Msg: "runner: doomed"}
	for _, runErr := range []error{nil, failed, errors.New("shard: no workers")} {
		f.Add(encodeSubmitDone(runErr, st))
	}
	f.Add(encodeSubmitDone(nil, &Stats{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		st, runErr, err := decodeSubmitDone(data)
		runtime.ReadMemStats(&after)
		decodeAllocBound(t, len(data), &before, &after)
		if err != nil {
			return
		}
		first := encodeSubmitDone(runErr, st)
		st, runErr, err = decodeSubmitDone(first)
		if err != nil {
			t.Fatalf("re-decoding an encoded outcome failed: %v", err)
		}
		if second := encodeSubmitDone(runErr, st); !bytes.Equal(first, second) {
			t.Fatalf("submit outcome encoding not stable:\n%x\n%x", first, second)
		}
	})
}

// FuzzDecodeHello feeds arbitrary bytes to the hello decoder, the
// first thing the hub reads from every new connection. decodeHello must
// return an error or a role and name and never panic; what it returns
// must re-encode stably; and decoding may allocate no more than a
// constant factor of the input.
func FuzzDecodeHello(f *testing.F) {
	f.Add(encodeHello(roleWorker, "127.0.0.1:7001"))
	f.Add(encodeHello(roleClient, "flows-client"))
	f.Add(encodeHello(roleClient, ""))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		role, name, err := decodeHello(data)
		runtime.ReadMemStats(&after)
		decodeAllocBound(t, len(data), &before, &after)
		if err != nil {
			return
		}
		first := encodeHello(role, name)
		role, name, err = decodeHello(first)
		if err != nil {
			t.Fatalf("re-decoding an encoded hello failed: %v", err)
		}
		if second := encodeHello(role, name); !bytes.Equal(first, second) {
			t.Fatalf("hello encoding not stable:\n%x\n%x", first, second)
		}
	})
}
