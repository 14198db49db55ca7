package shard

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"aigtimer/internal/aig"
)

// shortenHelloDeadline makes HandleConn give up on a silent peer after d
// for the rest of the test.
func shortenHelloDeadline(t *testing.T, d time.Duration) {
	t.Helper()
	old := helloDeadline
	helloDeadline = d
	t.Cleanup(func() { helloDeadline = old })
}

// A peer that connects and never sends its hello is dropped once the
// hello deadline passes, instead of holding the handshake forever.
func TestHubHandshakeDropsSilentPeer(t *testing.T) {
	shortenHelloDeadline(t, 50*time.Millisecond)
	h := NewHub(HubOptions{Logf: t.Logf})
	defer h.Close()
	hubSide, peer := net.Pipe()
	defer peer.Close()
	done := make(chan error, 1)
	go func() { done <- h.HandleConn(hubSide) }()
	select {
	case err := <-done:
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("silent peer: got %v, want a deadline error", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("silent peer still held 10 s after connecting")
	}
	if _, err := peer.Read(make([]byte, 1)); err == nil {
		t.Fatal("hub kept the silent peer's connection open")
	}
}

// A hello frame whose length prefix exceeds the hello cap is refused
// from the prefix alone: the payload the peer streams after it is never
// read into memory.
func TestHubHandshakeRejectsOversizedHello(t *testing.T) {
	h := NewHub(HubOptions{Logf: t.Logf})
	defer h.Close()
	hubSide, peer := net.Pipe()
	defer peer.Close()
	frame := binary.AppendUvarint([]byte{msgHello}, 64<<20)
	body := make([]byte, 4<<20) // really sent, unlike the claimed 64 MiB
	go func() {
		if _, err := peer.Write(frame); err != nil {
			return
		}
		peer.Write(body) // fails once the hub drops the connection
	}()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := h.HandleConn(hubSide)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("oversized hello accepted")
	}
	if grown := after.TotalAlloc - before.TotalAlloc; grown >= 1<<20 {
		t.Fatalf("rejecting an oversized hello allocated %d bytes", grown)
	}
}

// The hello deadline covers the handshake only: a worker and a client
// that both idle well past it after their hellos are still served.
func TestHubWorkerIdlePastHelloDeadline(t *testing.T) {
	const deadline = 50 * time.Millisecond
	shortenHelloDeadline(t, deadline)
	base := testAIG(41)
	cfg := testConfig()
	jobs := testJobs(3)
	want := reference(t, base, cfg, jobs)

	h := NewHub(HubOptions{Logf: t.Logf})
	defer h.Close()
	whub, wworker := net.Pipe()
	go h.HandleConn(whub)
	go RegisterWorker(wworker, "w0", newFakeRunner())
	waitFor(t, "worker registration", func() bool {
		h.mu.Lock()
		defer h.mu.Unlock()
		return h.fleetLocked() == 1
	})

	chub, cclient := net.Pipe()
	go h.HandleConn(chub)
	hc, err := NewHubClient(cclient, "idle-client")
	if err != nil {
		t.Fatal(err)
	}
	defer hc.Close()
	time.Sleep(4 * deadline) // both peers idle past the hello deadline

	results, _, err := hc.Submit([]*aig.AIG{base}, cfg, jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if err := sameResult(results[i].Result, want[i].Result); err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
	}
}
