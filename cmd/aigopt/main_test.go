package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// runMainEnv marks a re-executed test binary that must run main instead
// of the tests.
const runMainEnv = "AIGOPT_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// aigopt runs main in a subprocess with args and returns its combined
// output and exit code.
func aigopt(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	case err != nil:
		t.Fatalf("aigopt %v: %v", args, err)
	}
	return string(out), 0
}

func TestGroundTruthRunSmoke(t *testing.T) {
	out, code := aigopt(t, "-design", "EX54", "-flow", "ground-truth", "-iters", "4")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	if !strings.Contains(out, "best (by ground-truth cost)") {
		t.Fatalf("no best-cost line:\n%s", out)
	}
	if strings.Contains(out, "incremental:") {
		t.Fatalf("summary still reports incremental evaluation:\n%s", out)
	}
}

func TestRemovedFlagsRejected(t *testing.T) {
	out, code := aigopt(t, "-no-incremental", "-design", "EX54")
	if code != 2 || !strings.Contains(out, "flag provided but not defined") {
		t.Fatalf("-no-incremental: exit %d:\n%s", code, out)
	}
	help, _ := aigopt(t, "-h")
	if !strings.Contains(help, "-design") {
		t.Fatalf("-h printed no flag list:\n%s", help)
	}
	for _, f := range []string{"-no-incremental", "-inc-threshold"} {
		if strings.Contains(help, f) {
			t.Errorf("-h still lists %s", f)
		}
	}
}
