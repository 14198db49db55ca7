package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runMainEnv marks a re-executed test binary that must run main instead
// of the tests.
const runMainEnv = "AIGSTAT_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// aigstat runs main in a subprocess with args and returns its combined
// output and exit code.
func aigstat(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	case err != nil:
		t.Fatalf("aigstat %v: %v", args, err)
	}
	return string(out), 0
}

func TestDesignSmoke(t *testing.T) {
	out, code := aigstat(t, "-design", "EX08")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"mapped:", "signoff (", "critical path:"} {
		if !strings.Contains(out, want) {
			t.Errorf("no %q line:\n%s", want, out)
		}
	}
}

// The Verilog export writes the netlist the evaluation's state holds,
// after the summary lines; its gate count must match the mapped: line.
func TestVerilogMatchesMappedLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.v")
	out, code := aigstat(t, "-design", "EX08", "-verilog", path)
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	m := regexp.MustCompile(`mapped: gates=(\d+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no gate count on the mapped: line:\n%s", out)
	}
	want, _ := strconv.Atoi(m[1])
	v, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One instance line per gate: "  CELL gN (.A(...), ...);".
	got := len(regexp.MustCompile(`(?m)^\s+\w+ g\d+ \(`).FindAll(v, -1))
	if got != want {
		t.Fatalf("Verilog has %d gate instances, mapped: line says %d", got, want)
	}
}

func TestBadInputsExit1(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.aag")
	if out, code := aigstat(t, "-in", missing); code != 1 {
		t.Errorf("missing -in file: exit %d, want 1:\n%s", code, out)
	}
	if out, code := aigstat(t, "-design", "EX08", "-in", missing); code != 1 {
		t.Errorf("-design with -in: exit %d, want 1:\n%s", code, out)
	}
}
