package shard

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"aigtimer/internal/aig"
)

// Run is a hub over a fixed fleet. These tests pin what that means at
// the edges: a fleet that is dead from the start ends the run, nothing
// the run started outlives it, and its byte counts are the frames its
// workers saw.

// TestRunDeadFleetFails: conns whose peers closed before any frame
// must end the run with the fleet-loss error. A fixed fleet never grows
// back, so waiting for a registration, as a resident hub does, would
// hang.
func TestRunDeadFleetFails(t *testing.T) {
	conns := make([]io.ReadWriteCloser, 2)
	for i := range conns {
		c, peer := net.Pipe()
		peer.Close()
		conns[i] = c
	}
	done := make(chan error, 1)
	go func() {
		_, _, err := Run([]*aig.AIG{testAIG(7)}, testConfig(), testJobs(3), Options{Conns: conns})
		done <- err
	}()
	select {
	case err := <-done:
		want := "shard: all 2 workers lost with 3 jobs unfinished"
		if err == nil || err.Error() != want {
			t.Fatalf("err = %v, want %q", err, want)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("Run over a dead fleet did not return")
	}
}

// TestRunLeavesNoGoroutines: once Run and its workers have returned,
// the goroutine count is back where it started, after a clean run, a
// run that loses a worker mid-job, and a run over a dead fleet (whose
// workers die idle and are shut down by the scheduler's cull).
func TestRunLeavesNoGoroutines(t *testing.T) {
	base := testAIG(8)
	cfg := testConfig()
	jobs := testJobs(4)
	before := runtime.NumGoroutine()

	conns, wait := startWorkers([]*fakeRunner{newFakeRunner(), newFakeRunner()})
	if _, _, err := Run([]*aig.AIG{base}, cfg, jobs, Options{Conns: conns, Preseed: true}); err != nil {
		t.Fatal(err)
	}
	wait()

	dying := newFakeRunner()
	dying.killAfter = 1
	conns, wait = startWorkers([]*fakeRunner{dying, newFakeRunner()})
	dying.killConn = conns[0]
	if _, _, err := Run([]*aig.AIG{base}, cfg, jobs, Options{Conns: conns}); err != nil {
		t.Fatal(err)
	}
	wait()

	c, peer := net.Pipe()
	peer.Close()
	if _, _, err := Run([]*aig.AIG{base}, cfg, jobs, Options{Conns: []io.ReadWriteCloser{c}}); err == nil {
		t.Fatal("a dead fleet reported no error")
	}

	// A goroutine that has signalled its waiter may still be on its way
	// out; give stragglers a moment before calling it a leak.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		buf := make([]byte, 1<<16)
		t.Fatalf("%d goroutines after the runs, %d before:\n%s", n, before, buf[:runtime.Stack(buf, true)])
	}
}

// countingConn counts the bytes a worker reads and writes on its end
// of the transport.
type countingConn struct {
	io.ReadWriteCloser
	read, written atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Read(p)
	c.read.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.ReadWriteCloser.Write(p)
	c.written.Add(int64(n))
	return n, err
}

// TestRunCountsFrameBytes: BytesSent is every frame the workers read
// except the bye each gets when the run closes, and BytesReceived is
// every byte they wrote. Preseeding is on, so seed pushes still queued
// behind a job when the session ends are counted too.
func TestRunCountsFrameBytes(t *testing.T) {
	const workers = 2
	conns := make([]io.ReadWriteCloser, workers)
	sides := make([]*countingConn, workers)
	served := make(chan error, workers)
	for i := range conns {
		c, w := net.Pipe()
		conns[i], sides[i] = c, &countingConn{ReadWriteCloser: w}
		go func(w io.ReadWriteCloser) { served <- Serve(w, newFakeRunner()) }(sides[i])
	}
	_, st, err := Run([]*aig.AIG{testAIG(9)}, testConfig(), testJobs(6), Options{Conns: conns, Preseed: true})
	if err != nil {
		t.Fatal(err)
	}
	for range conns {
		if err := <-served; err != nil {
			t.Fatalf("worker: %v", err)
		}
	}
	if st.SeedPushes == 0 {
		t.Fatal("no seed pushes; the test needs preseeding traffic")
	}
	var read, written int64
	for _, s := range sides {
		read += s.read.Load()
		written += s.written.Load()
	}
	if want := read - workers*frameLen(0); st.BytesSent != want {
		t.Errorf("BytesSent = %d, want %d (%d read by the workers, less %d byes)", st.BytesSent, want, read, workers)
	}
	if st.BytesReceived != written {
		t.Errorf("BytesReceived = %d, want the %d bytes the workers wrote", st.BytesReceived, written)
	}
}

// TestFrameLen checks frameLen against the frames writeMsg writes, at
// payload sizes on both sides of the uvarint length's one- and two-byte
// limits.
func TestFrameLen(t *testing.T) {
	for _, n := range []int{0, 127, 128, 16383, 16384} {
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeMsg(bw, msgResult, make([]byte, n)); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if got := frameLen(n); got != int64(buf.Len()) {
			t.Errorf("frameLen(%d) = %d, writeMsg wrote %d bytes", n, got, buf.Len())
		}
	}
}
