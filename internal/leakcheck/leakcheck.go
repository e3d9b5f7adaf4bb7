// Package leakcheck fails a package's tests when a goroutine they started
// is still running module code after they end: a peer that runs for a
// week must stop everything it starts, and a test binary is where a stop
// path that does not stop shows first.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// module is the prefix of every function the module declares, as a stack
// trace spells it ("cqjoin.Open", "cqjoin/internal/daemon.(*Server).Close").
const module = "cqjoin"

// grace is how long the goroutines a package's tests started may take to
// finish once the tests have ended.
const grace = 5 * time.Second

// Main is a whole TestMain: it runs the package's tests and exits non-zero
// with their stacks if goroutines the tests started still run module code
// a grace period after the tests pass.
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
func Main(m *testing.M) {
	before := snapshot()
	code := m.Run()
	if code == 0 {
		if left := leaked(before, grace); len(left) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) still running after the tests:\n\n%s\n",
				len(left), strings.Join(left, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// snapshot returns the stack of every goroutine, keyed by its header line's
// "goroutine N" prefix.
func snapshot() map[string]string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) { // truncated: not every stack fit
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	stacks := make(map[string]string)
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if id, _, ok := strings.Cut(g, " ["); ok {
			stacks[id] = g
		}
	}
	return stacks
}

// leaked polls for up to wait until no goroutine missing from before runs
// module code, and returns the stacks of those that still do.
func leaked(before map[string]string, wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		var left []string
		for id, g := range snapshot() {
			if _, old := before[id]; !old && (strings.Contains(g, "\n"+module+".") || strings.Contains(g, "\n"+module+"/")) {
				left = append(left, g)
			}
		}
		if len(left) == 0 || time.Now().After(deadline) {
			return left
		}
		time.Sleep(10 * time.Millisecond)
	}
}
