package eval

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
	"sync"
)

// StoreKey identifies one record stream of a Store: the exact structural
// hash of the design being swept (aig.Hash of the base graph) paired
// with a hash of the evaluator specification that scored it
// (shard.EvalSpec.StoreHash for shippable evaluators, which covers the
// cell library a ground-truth evaluator signs off with). Metrics from
// different evaluators are never interchangeable, and neither are
// metrics of different designs, so records are only ever loaded back
// under the exact key that wrote them — the on-disk extension of the
// per-entry cache scoping the session protocol already enforces.
type StoreKey struct {
	Design uint64
	Spec   uint64
}

// storeMagic opens every store file; a file that does not begin with it
// is not a store (as opposed to a store with a torn tail, which is
// recovered by truncation).
var storeMagic = [8]byte{'A', 'I', 'G', 'E', 'V', 'S', 'T', '1'}

const (
	// storeFrameHeader is the fixed per-frame prefix: u32 payload length
	// + u32 CRC-32C of the payload, both little endian.
	storeFrameHeader = 8
	// storeKeyBytes is the frame-payload prefix naming the stream.
	storeKeyBytes = 16
	// storeRecordBytes is one CacheRecord on disk: FP, SH, and the exact
	// bit patterns of both metrics.
	storeRecordBytes = 32
	// maxStoreFrame bounds one frame; anything larger is framing
	// corruption, not a real flush.
	maxStoreFrame = 1 << 28
)

// storeCRC is the checksum of every frame (CRC-32C, Castagnoli).
var storeCRC = crc32.MakeTable(crc32.Castagnoli)

// Store is a disk-backed evaluation record store: an append-only,
// length-framed, checksummed log of CacheRecords keyed by StoreKey —
// the persistent form of the cluster-wide merged cache a shard
// coordinator builds during a session. A coordinator (or a local sweep)
// loads the records of its entries at start and installs them behind
// the ImportRecords prefilter, so a stored record may only ever skip an
// oracle call whose result it already is — warm starts are
// value-transparent by the same invariant that makes mid-sweep
// preseeding safe.
//
// Crash safety: every flush is one frame (length + CRC-32C + payload),
// and OpenStore recovers from a torn or corrupt tail by truncating the
// file at the first bad frame — it never refuses to start on a damaged
// store, it only forgets what the damage covered (a lost record only
// costs a future re-evaluation, never a wrong answer). Appends are
// deduplicated against the in-memory index, and Compact rewrites the
// file as one frame per key, dropping the fragmentation of many small
// flushes; Append triggers it automatically when the frame count far
// exceeds the key count.
//
// The on-disk format is versioned by its magic ("AIGEVST1"): records
// are value-based (fingerprint, structural hash, metric bit patterns)
// with no graph payloads, so files remain valid across releases as long
// as the fingerprint and aig.Hash definitions are unchanged — the same
// compatibility promise CacheKey already makes on the wire.
//
// A Store is safe for concurrent use; all methods may race with each
// other (including Append during Compact — the mutex serializes them).
type Store struct {
	mu     sync.Mutex
	path   string
	f      *os.File
	index  map[StoreKey]map[CacheKey]bool
	order  map[StoreKey][]CacheRecord // insertion order, deduplicated
	keys   []StoreKey                 // insertion order of first appearance
	frames int
	// recovered is the number of bytes truncated from a damaged tail at
	// open — diagnostic only.
	recovered int64
}

// OpenStore opens (creating if absent) the store file at path and loads
// its index. A damaged tail — a torn final frame, a checksum mismatch,
// a short header — truncates the file at the last intact frame; every
// frame before the damage is kept. A file that exists but does not
// start with the store magic is refused (it is not a crash artifact but
// someone else's data).
func OpenStore(path string) (*Store, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("eval: opening store: %w", err)
	}
	s := &Store{
		path:  path,
		f:     f,
		index: make(map[StoreKey]map[CacheKey]bool),
		order: make(map[StoreKey][]CacheRecord),
	}
	if err := s.load(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// load reads the whole file, installing intact frames and truncating at
// the first damaged one.
func (s *Store) load() error {
	info, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("eval: store stat: %w", err)
	}
	size := info.Size()
	if size < int64(len(storeMagic)) {
		// Empty, or a crash tore the magic itself: (re)initialize.
		s.recovered = size
		if err := s.f.Truncate(0); err != nil {
			return fmt.Errorf("eval: store init: %w", err)
		}
		if _, err := s.f.WriteAt(storeMagic[:], 0); err != nil {
			return fmt.Errorf("eval: store init: %w", err)
		}
		_, err := s.f.Seek(int64(len(storeMagic)), io.SeekStart)
		return err
	}
	var magic [8]byte
	if _, err := s.f.ReadAt(magic[:], 0); err != nil {
		return fmt.Errorf("eval: store magic: %w", err)
	}
	if magic != storeMagic {
		return fmt.Errorf("eval: %s is not an evaluation store (bad magic)", s.path)
	}
	off := int64(len(storeMagic))
	var hdr [storeFrameHeader]byte
	for off < size {
		if size-off < storeFrameHeader {
			break // short header: torn tail
		}
		if _, err := s.f.ReadAt(hdr[:], off); err != nil {
			return fmt.Errorf("eval: store read: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(hdr[0:4]))
		sum := binary.LittleEndian.Uint32(hdr[4:8])
		if n > maxStoreFrame || n < storeKeyBytes || (n-storeKeyBytes)%storeRecordBytes != 0 {
			break // implausible length: corrupt frame
		}
		if size-off-storeFrameHeader < n {
			break // short payload: torn tail
		}
		payload := make([]byte, n)
		if _, err := s.f.ReadAt(payload, off+storeFrameHeader); err != nil {
			return fmt.Errorf("eval: store read: %w", err)
		}
		if crc32.Checksum(payload, storeCRC) != sum {
			break // checksum mismatch: corrupt frame
		}
		s.installFrame(payload)
		s.frames++
		off += storeFrameHeader + n
	}
	if off < size {
		s.recovered = size - off
		if err := s.f.Truncate(off); err != nil {
			return fmt.Errorf("eval: store recovery truncate: %w", err)
		}
	}
	_, err = s.f.Seek(off, io.SeekStart)
	return err
}

// installFrame indexes one intact frame's records (deduplicating; a
// duplicate on disk — e.g. after recovering a file whose compaction was
// interrupted — is dropped silently).
func (s *Store) installFrame(payload []byte) {
	key := StoreKey{
		Design: binary.LittleEndian.Uint64(payload[0:8]),
		Spec:   binary.LittleEndian.Uint64(payload[8:16]),
	}
	for off := storeKeyBytes; off+storeRecordBytes <= len(payload); off += storeRecordBytes {
		rec := CacheRecord{
			FP: binary.LittleEndian.Uint64(payload[off : off+8]),
			SH: binary.LittleEndian.Uint64(payload[off+8 : off+16]),
			M: Metrics{
				DelayPS: math.Float64frombits(binary.LittleEndian.Uint64(payload[off+16 : off+24])),
				AreaUM2: math.Float64frombits(binary.LittleEndian.Uint64(payload[off+24 : off+32])),
			},
		}
		s.installLocked(key, rec)
	}
}

// installLocked indexes one record, reporting whether it was new.
func (s *Store) installLocked(key StoreKey, rec CacheRecord) bool {
	seen := s.index[key]
	if seen == nil {
		seen = make(map[CacheKey]bool)
		s.index[key] = seen
		s.keys = append(s.keys, key)
	}
	if seen[rec.Key()] {
		return false
	}
	seen[rec.Key()] = true
	s.order[key] = append(s.order[key], rec)
	return true
}

// framePayload serializes one key's records as a frame payload.
func framePayload(key StoreKey, recs []CacheRecord) []byte {
	b := make([]byte, 0, storeKeyBytes+len(recs)*storeRecordBytes)
	b = binary.LittleEndian.AppendUint64(b, key.Design)
	b = binary.LittleEndian.AppendUint64(b, key.Spec)
	for _, rec := range recs {
		b = binary.LittleEndian.AppendUint64(b, rec.FP)
		b = binary.LittleEndian.AppendUint64(b, rec.SH)
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.M.DelayPS))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.M.AreaUM2))
	}
	return b
}

// writeFrame appends one framed, checksummed payload to the file and
// syncs it — a crash mid-write loses at most this frame, which recovery
// truncates away.
func (s *Store) writeFrame(payload []byte) error {
	var hdr [storeFrameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, storeCRC))
	if _, err := s.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("eval: store write: %w", err)
	}
	if _, err := s.f.Write(payload); err != nil {
		return fmt.Errorf("eval: store write: %w", err)
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("eval: store sync: %w", err)
	}
	s.frames++
	return nil
}

// Append durably adds recs under key, skipping records the store
// already holds (so re-flushing a whole merged log is cheap and
// idempotent), and returns how many records were actually new. An empty
// delta writes nothing. When the file has fragmented into many more
// frames than keys, Append compacts it in place first.
func (s *Store) Append(key StoreKey, recs []CacheRecord) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var fresh []CacheRecord
	for _, rec := range recs {
		if s.installLocked(key, rec) {
			fresh = append(fresh, rec)
		}
	}
	if len(fresh) == 0 {
		return 0, nil
	}
	if s.frames > 4*len(s.keys)+64 {
		if err := s.compactLocked(); err != nil {
			return 0, err
		}
	}
	if err := s.writeFrame(framePayload(key, fresh)); err != nil {
		return 0, err
	}
	return len(fresh), nil
}

// Records returns a copy of the store's records for key, in the
// deterministic order they were first appended (load order for
// preexisting records). Unknown keys return nil.
func (s *Store) Records(key StoreKey) []CacheRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	recs := s.order[key]
	if len(recs) == 0 {
		return nil
	}
	return append([]CacheRecord(nil), recs...)
}

// Compact rewrites the store as one frame per key (keys sorted, records
// in first-append order), dropping the fragmentation of many small
// flushes and any duplicate frames a recovered file carried. The
// rewrite goes through a temp file and an atomic rename, so a crash
// mid-compaction leaves either the old file or the new one, never a mix.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	tmpPath := s.path + ".compact"
	tmp, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("eval: store compact: %w", err)
	}
	defer os.Remove(tmpPath) // no-op after a successful rename
	keys := append([]StoreKey(nil), s.keys...)
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Design != keys[j].Design {
			return keys[i].Design < keys[j].Design
		}
		return keys[i].Spec < keys[j].Spec
	})
	frames := 0
	write := func() error {
		if _, err := tmp.Write(storeMagic[:]); err != nil {
			return err
		}
		var hdr [storeFrameHeader]byte
		for _, key := range keys {
			payload := framePayload(key, s.order[key])
			binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
			binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, storeCRC))
			if _, err := tmp.Write(hdr[:]); err != nil {
				return err
			}
			if _, err := tmp.Write(payload); err != nil {
				return err
			}
			frames++
		}
		if err := tmp.Sync(); err != nil {
			return err
		}
		return nil
	}
	if err := write(); err != nil {
		tmp.Close()
		return fmt.Errorf("eval: store compact: %w", err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		tmp.Close()
		return fmt.Errorf("eval: store compact: %w", err)
	}
	if err := s.f.Close(); err != nil {
		tmp.Close()
		return fmt.Errorf("eval: store compact: %w", err)
	}
	if _, err := tmp.Seek(0, io.SeekEnd); err != nil {
		tmp.Close()
		return fmt.Errorf("eval: store compact: %w", err)
	}
	s.f = tmp
	s.frames = frames
	return nil
}

// Len returns the total number of records across all keys.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, recs := range s.order {
		n += len(recs)
	}
	return n
}

// NumKeys returns the number of distinct (design, evaluator) streams.
func (s *Store) NumKeys() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.keys)
}

// RecoveredBytes reports how many bytes of damaged tail OpenStore
// truncated away — zero for a cleanly closed store.
func (s *Store) RecoveredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Path returns the file the store persists to.
func (s *Store) Path() string { return s.path }

// Close flushes nothing (every Append is already durable) and releases
// the file handle. The store must not be used after Close.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}
