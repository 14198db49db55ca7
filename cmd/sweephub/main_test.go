package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"aigtimer/internal/anneal"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/flows"
)

// runMainEnv marks a re-executed test binary that must run main instead
// of the tests.
const runMainEnv = "SWEEPHUB_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// start launches cmd, reads its first stdout line and checks it begins
// with banner, and returns the rest of the line together with a channel
// closed once the process has exited (cmd.ProcessState is set by then).
// The process is killed at test cleanup if it is still running.
func start(t *testing.T, cmd *exec.Cmd, banner string) (string, <-chan struct{}) {
	t.Helper()
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(stdout).ReadString('\n')
	// Wait only after the last read from the pipe: it closes the pipe.
	exited := make(chan struct{})
	go func() {
		cmd.Wait()
		close(exited)
	}()
	t.Cleanup(func() {
		cmd.Process.Kill()
		<-exited
	})
	if err != nil || !strings.HasPrefix(line, banner) {
		t.Fatalf("%s: banner %q, %v", cmd.Path, line, err)
	}
	return strings.TrimSpace(strings.TrimPrefix(line, banner)), exited
}

// buildSweepd compiles cmd/sweepd into a test-owned directory.
func buildSweepd(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "sweepd")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/sweepd")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building sweepd: %v\n%s", err, out)
	}
	return bin
}

// TestHubServesSweepAndStopsOnSIGTERM runs a sweephub process with one
// sweepd worker registered through -hub, submits a one-point proxy
// sweep to it, and checks the result is byte-identical to the local
// sweep; SIGTERM must then end the hub with exit code 0.
func TestHubServesSweepAndStopsOnSIGTERM(t *testing.T) {
	hub := exec.Command(os.Args[0], "-listen", "127.0.0.1:0")
	hub.Env = append(os.Environ(), runMainEnv+"=1")
	addr, hubExited := start(t, hub, "sweephub listening on ")
	start(t, exec.Command(buildSweepd(t), "-hub", addr), "sweepd registered with hub ")

	d, err := bench.ByName("EX54")
	if err != nil {
		t.Fatal(err)
	}
	g, lib := d.Build(), cell.Builtin()
	base := anneal.DefaultParams
	base.Iterations, base.Seed = 8, 3
	cfg := flows.SweepConfig{
		Base:         base,
		DelayWeights: []float64{1},
		AreaWeights:  []float64{0.5},
		DecayRates:   []float64{0.95},
	}
	want, err := flows.Sweep(g, flows.Proxy{}, lib, cfg)
	if err != nil {
		t.Fatal(err)
	}
	entries := []flows.SuiteEntry{{Name: "EX54", G: g, Eval: flows.Proxy{}}}
	got, _, err := flows.SweepSuiteSharded(entries, lib, cfg, flows.ShardOptions{Hub: addr})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flows.CanonicalizeSweep(got[0].Points), flows.CanonicalizeSweep(want)) {
		t.Fatal("the sweep served through the hub differs from the local sweep")
	}

	if err := hub.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-hubExited:
		if code := hub.ProcessState.ExitCode(); code != 0 {
			t.Fatalf("sweephub exited with code %d after SIGTERM, want 0", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sweephub still running 30 s after SIGTERM")
	}
}
