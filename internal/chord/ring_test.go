package chord

import (
	"strings"
	"testing"
)

// CheckRing is the invariant oracle the churn suites and the daemon's
// stats op gate on, so it gets direct tests: a healthy overlay passes, a
// mid-join appendage is legal but not converged, and each class of pointer
// corruption is named in the report.

func TestCheckRingHealthy(t *testing.T) {
	net := New(Config{})
	net.AddNodes("h", 12)
	rep := CheckRing(net)
	if !rep.OK() || !rep.Converged() {
		t.Fatalf("healthy ring reported broken: %s", rep)
	}
	if rep.Alive != 12 || rep.CycleLen != 12 || rep.Appendages != 0 {
		t.Fatalf("healthy ring report: %s", rep)
	}
	if rep.Err() != nil {
		t.Fatalf("Err on a healthy ring: %v", rep.Err())
	}
}

// A protocol joiner that has not stabilized yet hangs off the cycle as an
// appendage: legal (Connected Appendages) but not converged.
func TestCheckRingMidJoinAppendage(t *testing.T) {
	net := New(Config{})
	net.AddNodes("a", 8)
	if _, err := net.JoinProtocol("appendage"); err != nil {
		t.Fatalf("JoinProtocol: %v", err)
	}
	rep := CheckRing(net)
	if !rep.OK() {
		t.Fatalf("mid-join overlay reported broken: %s", rep)
	}
	if rep.Converged() || rep.Appendages != 1 || rep.CycleLen != 8 {
		t.Fatalf("mid-join report: %s", rep)
	}
	net.StabilizeAll(2)
	if rep := CheckRing(net); !rep.Converged() {
		t.Fatalf("overlay did not converge after stabilization: %s", rep)
	}
}

// Two disjoint cycles violate At Most One Ring: the walk from one half
// never reaches the cycle the other half found.
func TestCheckRingDetectsSecondRing(t *testing.T) {
	net := New(Config{})
	net.AddNodes("s", 6)
	nodes := net.Nodes() // ring order
	half := len(nodes) / 2
	wire := func(group []*Node) {
		for i, n := range group {
			next := group[(i+1)%len(group)]
			n.rewire(func(t *routeTable) { t.succs = []*Node{next} })
		}
	}
	wire(nodes[:half])
	wire(nodes[half:])
	rep := CheckRing(net)
	if rep.OK() {
		t.Fatalf("two disjoint cycles passed: %s", rep)
	}
	if !strings.Contains(rep.String(), "does not reach the ring cycle") {
		t.Fatalf("second ring not named: %s", rep)
	}
}

// A cycle visiting identifiers out of order violates Ordered Ring.
func TestCheckRingDetectsUnorderedCycle(t *testing.T) {
	net := New(Config{})
	net.AddNodes("o", 6)
	nodes := net.Nodes() // ring order
	// Swap two adjacent nodes in the successor cycle: ...->a->b->... becomes
	// ...->b->a->..., which wraps more than once.
	a, b := nodes[2], nodes[3]
	nodes[1].rewire(func(t *routeTable) { t.succs = []*Node{b} })
	b.rewire(func(t *routeTable) { t.succs = []*Node{a} })
	a.rewire(func(t *routeTable) { t.succs = []*Node{nodes[4]} })
	rep := CheckRing(net)
	if rep.OK() {
		t.Fatalf("unordered cycle passed: %s", rep)
	}
	if !strings.Contains(rep.String(), "ordered ring") {
		t.Fatalf("ordering violation not named: %s", rep)
	}
}

// A successor list that repeats an entry, contains its own node, or breaks
// clockwise order violates successor-list consistency.
func TestCheckRingDetectsBadSuccessorList(t *testing.T) {
	net := New(Config{SuccessorListLen: 4})
	net.AddNodes("l", 8)
	n := net.Nodes()[0]

	saved := n.SuccessorList()
	n.rewire(func(t *routeTable) { t.succs = []*Node{saved[0], saved[0]} })
	if rep := CheckRing(net); rep.OK() || !strings.Contains(rep.String(), "repeats") {
		t.Fatalf("repeated successor-list entry not flagged: %s", rep)
	}

	n.rewire(func(t *routeTable) { t.succs = []*Node{saved[0], n} })
	if rep := CheckRing(net); rep.OK() || !strings.Contains(rep.String(), "contains itself") {
		t.Fatalf("self entry not flagged: %s", rep)
	}

	n.rewire(func(t *routeTable) { t.succs = []*Node{saved[1], saved[0]} })
	if rep := CheckRing(net); rep.OK() || !strings.Contains(rep.String(), "clockwise order") {
		t.Fatalf("order violation not flagged: %s", rep)
	}

	n.rewire(func(t *routeTable) { t.succs = saved })
	if rep := CheckRing(net); !rep.Converged() {
		t.Fatalf("restored ring reported broken: %s", rep)
	}
}
