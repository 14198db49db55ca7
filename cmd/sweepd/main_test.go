package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"strings"
	"testing"

	"aigtimer/internal/anneal"
	"aigtimer/internal/bench"
	"aigtimer/internal/cell"
	"aigtimer/internal/flows"
)

// runMainEnv marks a re-executed test binary that must run main instead
// of the tests.
const runMainEnv = "SWEEPD_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// sweepd runs main in a subprocess with args and returns the address of
// its "sweepd listening on" line. The process is killed at test cleanup.
func sweepd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
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
	const banner = "sweepd listening on "
	if err != nil || !strings.HasPrefix(line, banner) {
		t.Fatalf("sweepd %v: banner %q, %v", args, line, err)
	}
	return strings.TrimSpace(strings.TrimPrefix(line, banner))
}

// TestListenServesEndpointsSweep runs a one-point proxy sweep through a
// sweepd process named as an endpoint: the sharded result must be
// byte-identical to the local sweep.
func TestListenServesEndpointsSweep(t *testing.T) {
	addr := sweepd(t, "-listen", "127.0.0.1:0")
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
	got, st, err := flows.SweepSuiteSharded(entries, lib, cfg, flows.ShardOptions{Endpoints: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(flows.CanonicalizeSweep(got[0].Points), flows.CanonicalizeSweep(want)) {
		t.Fatal("the sweep served by sweepd differs from the local sweep")
	}
	if len(st.Workers) != 1 || st.Workers[0].Jobs != 1 {
		t.Fatalf("worker accounting %+v, want one worker with one job", st.Workers)
	}
}
