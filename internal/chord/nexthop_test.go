package chord

import (
	"fmt"
	"math/rand"
	"testing"

	"cqjoin/internal/id"
)

// linearClosestPrecedingAlive is the next-hop rule as first written: walk
// all 160 fingers from the top, then the successor list. It is the oracle
// closestPrecedingAlive must agree with in every overlay state.
func linearClosestPrecedingAlive(n *Node, target id.ID) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	for j := id.Bits - 1; j >= 0; j-- {
		f := n.fingers[j]
		if f == nil || !f.Alive() {
			continue
		}
		if id.Between(f.id, n.id, target) {
			return f
		}
	}
	for j := len(n.succs) - 1; j >= 0; j-- {
		s := n.succs[j]
		if s != nil && s.Alive() && id.Between(s.id, n.id, target) {
			return s
		}
	}
	return n
}

// nextHopTargets lists the identifiers worth asking node n about: the
// positions of up to 24 members (alive or not) and their two neighbours, n's
// own position, both edges of every finger interval, and a few random points.
func nextHopTargets(n *Node, members []*Node, rng *rand.Rand) []id.ID {
	one := id.FromUint64(1)
	targets := []id.ID{n.id, n.id.Add(one), n.id.Sub(one)}
	for _, i := range rng.Perm(len(members))[:min(len(members), 24)] {
		m := members[i]
		targets = append(targets, m.id, m.id.Add(one), m.id.Sub(one))
	}
	for j := uint(0); j < id.Bits; j++ {
		start := n.id.AddPow2(j)
		targets = append(targets, start, start.Sub(one), start.Add(one))
	}
	for i := 0; i < 16; i++ {
		var k id.ID
		rng.Read(k[:])
		targets = append(targets, k)
	}
	return targets
}

// assertNextHopsMatchLinear checks every alive node against every target and
// returns how many of the nodes held a stray finger.
func assertNextHopsMatchLinear(t *testing.T, net *Network, everSeen []*Node, rng *rand.Rand) int {
	t.Helper()
	stray := 0
	for _, n := range net.Nodes() {
		n.mu.Lock()
		if n.strayFingers > 0 {
			stray++
		}
		n.mu.Unlock()
		for _, target := range nextHopTargets(n, everSeen, rng) {
			if got, want := n.closestPrecedingAlive(target), linearClosestPrecedingAlive(n, target); got != want {
				t.Fatalf("next hop of %s toward %s = %s, the linear scan says %s", n, target, got, want)
			}
		}
	}
	return stray
}

func TestNextHopMatchesLinearScanOnExactRings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sizes := []int{1, 2, 3, 5, 24, 200}
	if testing.Short() {
		sizes = sizes[:5]
	}
	for _, size := range sizes {
		net := New(Config{})
		nodes := net.AddNodes("n", size)
		assertNextHopsMatchLinear(t, net, nodes, rng)
		// Crashes leave dead fingers and successor-list entries behind.
		for i := 0; i < size/3; i++ {
			net.FailProtocol(nodes[rng.Intn(len(nodes))])
		}
		assertNextHopsMatchLinear(t, net, nodes, rng)
	}
}

// The protocol operations repair nothing themselves: between maintenance
// rounds the tables hold dead entries and fingers that predate a join. The
// next hop must be the linear scan's in every such state.
func TestNextHopMatchesLinearScanMidProtocol(t *testing.T) {
	seeds := int64(5)
	if testing.Short() {
		seeds = 2
	}
	for seed := int64(0); seed < seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := New(Config{})
		everSeen := net.AddNodes("base", 3+int(seed)*3)
		for op := 0; op < 50; op++ {
			nodes := net.Nodes()
			switch k := rng.Intn(5); {
			case k == 0 || len(nodes) < 3:
				n, err := net.JoinProtocol(fmt.Sprintf("j-%d-%d", seed, op))
				if err != nil {
					t.Fatalf("join: %v", err)
				}
				everSeen = append(everSeen, n)
			case k == 1:
				net.LeaveProtocol(nodes[rng.Intn(len(nodes))])
			case k == 2:
				net.FailProtocol(nodes[rng.Intn(len(nodes))])
			default:
				net.StabilizeOnce(1 + rng.Intn(40))
			}
			assertNextHopsMatchLinear(t, net, everSeen, rng)
		}
	}
}

// A stray finger — one closer to its node than 2^j — comes out of a lookup
// answered from pointers that predate two joins: n joins and tells its
// successor s; p joins just behind n and, stabilizing, becomes n's
// predecessor; the node before them still has s for a successor, so n's
// lookup of id(n) + 2^159, which p owns, comes back as s. The start-offset
// scan would skip that finger, so closestPrecedingAlive must fall back to
// the full scan until maintenance replaces it.
func TestNextHopWithStrayFinger(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 400; i++ {
		net := New(Config{})
		members := net.AddNodes("base", 2)
		for _, key := range []string{fmt.Sprintf("late-%d", i), fmt.Sprintf("later-%d", i)} {
			n, err := net.JoinProtocol(key)
			if err != nil {
				t.Fatalf("join: %v", err)
			}
			n.Stabilize()
			members = append(members, n)
		}
		n := members[2]
		n.FixFinger(id.Bits)
		if assertNextHopsMatchLinear(t, net, members, rng) == 0 {
			continue // these two keys did not land in that order
		}
		net.StabilizeAll(4)
		if strays := assertNextHopsMatchLinear(t, net, members, rng); strays != 0 {
			t.Fatalf("%d nodes still count a stray finger on the converged ring", strays)
		}
		return
	}
	t.Fatal("no pair of joiners produced a stray finger")
}
