package chord

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cqjoin/internal/id"
)

// routeTable is a node's routing state spelled out as plain pointers, the
// form a test reads and stages it in.
type routeTable struct {
	pred    *Node
	succs   []*Node
	fingers [id.Bits]*Node // entry j-1 is finger j
}

// spelled reads n's current view as a routeTable.
func (n *Node) spelled() routeTable {
	v := n.view.Load()
	t := routeTable{pred: v.pred.node, fingers: v.table()}
	for _, s := range v.succs {
		t.succs = append(t.succs, s.node)
	}
	return t
}

// rewire is the one way a test writes a node's routing state: edit changes
// the spelled-out state in place, and what it leaves is published as n's new
// view, as a protocol step publishes one.
func (n *Node) rewire(edit func(t *routeTable)) {
	n.mu.Lock()
	defer n.mu.Unlock()
	t := n.spelled()
	edit(&t)
	n.view.Store(&routeView{pred: entry(t.pred), succs: entries(t.succs), fingers: fingerRuns(n, &t.fingers)})
}

// deadNode is a node of net at key's position that was never in the ring.
func deadNode(net *Network, key string) *Node {
	n := newNode(net, key, id.Hash(key))
	n.alive.Store(false)
	return n
}

// tableNextHop is nextHop as it read a table of 160 entries under the node's
// lock, before the view: the list's reach, then the table from entry
// BitLen(Distance(n, target)) − 1 down, skipping an entry equal to the one
// just examined, every interval test on full identifiers. It holds for any
// table, stray entries included.
func tableNextHop(n *Node, target id.ID) (*Node, bool) {
	t := n.spelled()
	last := n
	for j := len(t.succs) - 1; j >= 0; j-- {
		if s := t.succs[j]; s != nil && s.Alive() {
			last = s
			break
		}
	}
	if id.BetweenRightIncl(target, n.id, last.id) {
		for _, s := range t.succs {
			if s != nil && s.Alive() && id.BetweenRightIncl(target, n.id, s.id) {
				return s, true
			}
		}
		return last, true
	}
	top := id.Bits - 1
	if b := id.Distance(n.id, target).BitLen(); b > 0 {
		top = b - 1
	}
	var seen *Node
	for j := top; j >= 0; j-- {
		f := t.fingers[j]
		if f == seen {
			continue
		}
		seen = f
		if f != nil && f.Alive() && id.Between(f.id, n.id, target) {
			return f, false
		}
	}
	return last, false
}

// tiedRing builds, through JoinAt, a ring of clusters whose members share
// their heads — the first 8 bytes of their identifiers — one cluster at
// each end of the head space, so the ring of heads wraps inside a cluster.
// Its fingers are what each join built: the ring's later joins leave them
// stale, not stray.
func tiedRing(t *testing.T, rng *rand.Rand, clusters, size int) (*Network, []*Node) {
	t.Helper()
	net := New(Config{SuccessorListLen: 3})
	var nodes []*Node
	for c := 0; c < clusters; c++ {
		var base id.ID
		rng.Read(base[:8])
		switch c {
		case 0:
			base = id.ID{}
		case 1:
			base = id.ID{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
		}
		for k := 0; k < size; k++ {
			nid := base
			rng.Read(nid[8:])
			n, err := net.JoinAt(fmt.Sprintf("tie-%d-%d", c, k), nid)
			if err != nil {
				t.Fatalf("join: %v", err)
			}
			nodes = append(nodes, n)
		}
	}
	return net, nodes
}

// tiedTargets lists, for every member, its own identifier, its neighbours
// one away, and points that share its head: the lowest and highest of that
// head and two at random.
func tiedTargets(members []*Node, rng *rand.Rand) []id.ID {
	one := id.FromUint64(1)
	var targets []id.ID
	for _, m := range members {
		lo, hi := m.id, m.id
		for i := 8; i < len(lo); i++ {
			lo[i], hi[i] = 0, 0xff
		}
		targets = append(targets, m.id, m.id.Add(one), m.id.Sub(one), lo, hi)
		for i := 0; i < 2; i++ {
			k := m.id
			rng.Read(k[8:])
			targets = append(targets, k)
		}
	}
	return targets
}

// assertTiedRingRoutes holds every alive node of net, toward every target, to
// the linear scan and OwnsKey to BetweenRightIncl on its predecessor.
func assertTiedRingRoutes(t *testing.T, net *Network, targets []id.ID) {
	t.Helper()
	for _, n := range net.Nodes() {
		pred := n.view.Load().pred.node
		for _, target := range targets {
			got, final := n.nextHop(target)
			want, wantFinal := linearNextHop(n, target)
			if got != want || final != wantFinal {
				t.Fatalf("next hop of %s toward %s = %s (final %v), the linear scan says %s (final %v)",
					n, target, got, final, want, wantFinal)
			}
			owns := pred == nil || !pred.Alive() || id.BetweenRightIncl(target, pred.id, n.id)
			if n.OwnsKey(target) != owns {
				t.Fatalf("%s owns %s: %v, BetweenRightIncl on its predecessor %s says %v", n, target, !owns, pred, owns)
			}
		}
	}
}

// Heads decide a hop only where they differ pairwise. On rings whose members
// come in clusters of one head, toward targets that equal a member or share
// its head, every hop must be the linear scan's and every ownership test
// BetweenRightIncl's: as joined, repaired exactly, after crashes and after a
// round of the protocol.
func TestNextHopMatchesLinearScanOnTiedHeads(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	net, nodes := tiedRing(t, rng, 5, 6)
	targets := append(tiedTargets(nodes, rng), nextHopTargets(nodes[0], nodes, rng)...)
	assertTiedRingRoutes(t, net, targets)
	assertNextHopsMatchLinear(t, net, nodes, rng)
	net.RepairAll()
	assertTiedRingRoutes(t, net, targets)
	assertRoutesMatchLinear(t, net, nodes, rng, true)
	for i := 0; i < 6; i++ {
		net.FailProtocol(nodes[rng.Intn(len(nodes))])
	}
	assertTiedRingRoutes(t, net, targets)
	net.StabilizeOnce(8)
	assertTiedRingRoutes(t, net, targets)
}

// The view keeps a finger table as runs and asks a run's lowest index of the
// target only when the run is stray; the table scan started at the target's
// bit length. On tables of random members — stray, dead, nil and out of order
// entries, which no lookup installs — on a ring with tied heads, the two must
// still pick the same hop.
func TestNextHopMatchesTheTableScanOnAnyTable(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net, nodes := tiedRing(t, rng, 4, 4)
	targets := tiedTargets(nodes, rng)
	pool := append([]*Node{nil, deadNode(net, "never-joined")}, nodes...)
	for trial := 0; trial < 20; trial++ {
		written := make(map[*Node][id.Bits]*Node)
		for _, n := range net.Nodes() {
			n.rewire(func(rt *routeTable) {
				for j := range rt.fingers {
					if j == 0 || rng.Intn(8) == 0 {
						rt.fingers[j] = pool[rng.Intn(len(pool))]
					} else {
						rt.fingers[j] = rt.fingers[j-1]
					}
				}
				written[n] = rt.fingers
			})
		}
		for _, n := range net.Nodes() {
			for j := 1; j <= id.Bits; j++ {
				if got, want := n.Finger(j), written[n][j-1]; got != want {
					t.Fatalf("finger %d of %s = %v, the table says %v", j, n, got, want)
				}
			}
			for _, target := range targets {
				got, final := n.nextHop(target)
				want, wantFinal := tableNextHop(n, target)
				if got != want || final != wantFinal {
					t.Fatalf("trial %d: next hop of %s toward %s = %s (final %v), the table scan says %s (final %v)",
						trial, n, target, got, final, want, wantFinal)
				}
			}
		}
		if trial == 10 {
			net.FailProtocol(nodes[rng.Intn(len(nodes))])
		}
	}
}

// A hint decides only where a deliverable goes first: on tables of random
// members — stray, dead, nil and out of order fingers — on a ring with tied
// heads, a hinted multisend must reach every deliverable's owner as the plain
// walk does, whether its hint owns it, is live but stale within a successor
// list's reach or past it, is dead, is nil, or is shared with other
// deliverables. Crashes here are Fail's, which mends the predecessors, so
// ownership stays exact and the walk's recipients are the oracle's.
func TestHintedMultisendMatchesTheWalkOnAnyTable(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	net, nodes := tiedRing(t, rng, 4, 5)
	targets := tiedTargets(nodes, rng)
	dead := []*Node{deadNode(net, "never-joined")}
	pick := func(hints []*Node, target id.ID) *Node {
		live := net.Nodes()
		owner := net.OracleSuccessor(target)
		switch rng.Intn(6) {
		case 0:
			return owner
		case 1: // live and stale: a few nodes past the owner, within reach or not
			h := owner
			for i := rng.Intn(2 * net.SuccessorListLen()); i >= 0; i-- {
				h = h.Successor()
			}
			return h
		case 2:
			return live[rng.Intn(len(live))]
		case 3:
			return dead[rng.Intn(len(dead))]
		case 4:
			if len(hints) > 0 {
				return hints[rng.Intn(len(hints))]
			}
		}
		return nil
	}
	for trial := 0; trial < 20; trial++ {
		pool := append(append([]*Node{nil}, dead...), net.Nodes()...)
		for _, n := range net.Nodes() {
			n.rewire(func(rt *routeTable) {
				for j := range rt.fingers {
					if j == 0 || rng.Intn(8) == 0 {
						rt.fingers[j] = pool[rng.Intn(len(pool))]
					} else {
						rt.fingers[j] = rt.fingers[j-1]
					}
				}
			})
		}
		for b := 0; b < 40; b++ {
			live := net.Nodes()
			src := live[rng.Intn(len(live))]
			walked := make([]Deliverable, 1+rng.Intn(multisendStack+2))
			hinted := make([]Deliverable, len(walked))
			var hints []*Node
			for i := range walked {
				walked[i] = Deliverable{Target: targets[rng.Intn(len(targets))], Msg: testMsg{kind: "walk"}}
				hinted[i] = Deliverable{Target: walked[i].Target, Msg: testMsg{kind: "hint"}, Hint: pick(hints, walked[i].Target)}
				if hinted[i].Hint != nil {
					hints = append(hints, hinted[i].Hint)
				}
			}
			want, _, err := src.Multisend(walked, nil)
			if err != nil {
				t.Fatalf("trial %d: walk from %s: %v", trial, src, err)
			}
			hops := net.Traffic().Hops("hint")
			got, gotHops, err := src.Multisend(hinted, nil)
			if err != nil {
				t.Fatalf("trial %d: hinted multisend from %s: %v", trial, src, err)
			}
			for i, d := range hinted {
				if got[i] != want[i] || got[i] != net.OracleSuccessor(d.Target) {
					t.Fatalf("trial %d: deliverable %d of %d, hinted to %v, taken by %s; the walk's went to %s",
						trial, i, len(hinted), d.Hint, got[i], want[i])
				}
			}
			if charged := net.Traffic().Hops("hint") - hops; charged != int64(gotHops) {
				t.Fatalf("trial %d: %d hops returned, %d charged", trial, gotHops, charged)
			}
		}
		if trial%5 == 4 {
			live := net.Nodes()
			n := live[rng.Intn(len(live))]
			net.Fail(n)
			dead = append(dead, n)
		}
	}
	if net.Handbacks() == 0 {
		t.Fatal("no leg was handed back: the stale hints went untried")
	}
}

// Hops read a node's view without its lock while joins, leaves, crashes and
// maintenance replace views under it. Under -race this is where a write the
// view does not cover shows; every walk must end at a node or fail as a walk
// may during churn, and once the churn stops and the protocol has run, every
// walk must end at the owner.
func TestRoutingDuringChurnReadsWholeViews(t *testing.T) {
	net := New(Config{})
	net.AddNodes("conc", 48)
	var (
		wg   sync.WaitGroup
		stop = make(chan struct{})
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			batch := make([]Deliverable, 3)
			for {
				select {
				case <-stop:
					return
				default:
				}
				src := net.NodeAt(rng.Intn(64))
				if src == nil {
					continue
				}
				var k id.ID
				rng.Read(k[:])
				if dst, _, err := src.route(k); err == nil && dst == nil || err != nil && !errors.Is(err, ErrRoutingFailed) {
					t.Errorf("route from %s: %v, %v", src, dst, err)
					return
				}
				for i := range batch {
					rng.Read(batch[i].Target[:])
					batch[i].Msg = testMsg{kind: "conc"}
				}
				if _, _, err := src.Multisend(batch, nil); err != nil && !errors.Is(err, ErrRoutingFailed) {
					t.Errorf("multisend from %s: %v", src, err)
					return
				}
			}
		}(int64(w))
	}
	rng := rand.New(rand.NewSource(13))
	for op := 0; op < 60; op++ {
		nodes := net.Nodes()
		switch rng.Intn(4) {
		case 0:
			if _, err := net.JoinProtocol(fmt.Sprintf("conc-j%d", op)); err != nil {
				t.Errorf("join: %v", err)
			}
		case 1:
			net.LeaveProtocol(nodes[rng.Intn(len(nodes))])
		case 2:
			net.FailProtocol(nodes[rng.Intn(len(nodes))])
		default:
			net.StabilizeOnce(4)
		}
	}
	close(stop)
	wg.Wait()
	net.StabilizeAll(4)
	assertRingExact(t, net)
	assertRoutingMatchesOracle(t, net, rng, 200)
}
