package cell

import (
	"os"
	"os/exec"
	"sync"
	"testing"
)

// builtinChildEnv marks the re-run of the test binary in which
// TestBuiltinConcurrentFirstUse makes the process's first Builtin calls.
const builtinChildEnv = "CELL_BUILTIN_FIRST_USE_CHILD"

// TestBuiltinConcurrentFirstUse makes the first Builtin calls of a
// fresh process from four goroutines at once: they must all get the
// same library (flows compares libraries with the builtin by pointer),
// and under -race the child exits non-zero if the lazy parse races. The
// child is this test binary re-run, because any earlier Builtin call in
// the process would make the first use sequential.
func TestBuiltinConcurrentFirstUse(t *testing.T) {
	if os.Getenv(builtinChildEnv) == "1" {
		var libs [4]*Library
		var wg sync.WaitGroup
		start := make(chan struct{})
		for i := range libs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				libs[i] = Builtin()
			}()
		}
		close(start)
		wg.Wait()
		for i := range libs {
			if libs[i] != libs[0] {
				t.Fatalf("concurrent first calls returned distinct libraries %p and %p", libs[0], libs[i])
			}
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBuiltinConcurrentFirstUse$", "-test.count=1")
	cmd.Env = append(os.Environ(), builtinChildEnv+"=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child process: %v\n%s", err, out)
	}
}
