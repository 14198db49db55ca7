package shard

import (
	"bytes"
	"runtime"
	"testing"
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
		if grown := after.TotalAlloc - before.TotalAlloc; grown > 256*uint64(len(data))+64<<10 {
			t.Fatalf("decoding %d bytes allocated %d bytes", len(data), grown)
		}
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
