package shard

import (
	"bytes"
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
