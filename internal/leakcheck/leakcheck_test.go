package leakcheck

import (
	"strings"
	"testing"
	"time"
)

func blockOn(ch chan struct{}) { <-ch }

func sleepFor(d time.Duration) { time.Sleep(d) }

// TestLeakedReportsOnlyWhatOutlivesTheGrace: a goroutine blocked on a
// channel nobody closes is reported with its stack; one that finishes
// inside the grace period is not.
func TestLeakedReportsOnlyWhatOutlivesTheGrace(t *testing.T) {
	before := snapshot()
	stuck := make(chan struct{})
	defer close(stuck)
	go blockOn(stuck)
	go sleepFor(50 * time.Millisecond)

	left := leaked(before, 500*time.Millisecond)
	if len(left) != 1 || !strings.Contains(left[0], "leakcheck.blockOn") {
		t.Fatalf("leaked = %q, want only the goroutine in blockOn", left)
	}
}

// TestLeakedIgnoresWhatRanBefore: goroutines already running when the
// snapshot was taken are not the tests' to stop.
func TestLeakedIgnoresWhatRanBefore(t *testing.T) {
	stuck := make(chan struct{})
	defer close(stuck)
	go blockOn(stuck)
	if left := leaked(snapshot(), 0); len(left) != 0 {
		t.Fatalf("leaked = %q, want none", left)
	}
}
