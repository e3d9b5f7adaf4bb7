package daemon

import (
	"fmt"
	"reflect"
	"testing"

	"cqjoin/internal/id"
	"cqjoin/internal/wire"
)

// TestViewTotalOrder pins the arbitration order on views: version
// dominates, equal versions are broken by the originator's ring position,
// and the order is a strict total order (irreflexive, antisymmetric) over
// distinct (version, origin) stamps — the property that makes every
// process pick the same winner between concurrent same-version views.
func TestViewTotalOrder(t *testing.T) {
	if !viewAfter(3, "a", 2, "z") {
		t.Fatal("higher version must win regardless of origin")
	}
	if viewAfter(2, "z", 3, "a") {
		t.Fatal("lower version must lose regardless of origin")
	}
	if viewAfter(2, "a", 2, "a") {
		t.Fatal("a view must not succeed itself")
	}
	origins := []string{"", "10.0.0.1:7570", "10.0.0.2:7570", "10.0.0.3:7570", "z"}
	for _, a := range origins {
		for _, b := range origins {
			x, y := viewAfter(2, a, 2, b), viewAfter(2, b, 2, a)
			if a == b {
				if x || y {
					t.Fatalf("equal stamps ordered: %q", a)
				}
				continue
			}
			if x == y {
				t.Fatalf("origins %q vs %q: not antisymmetric (both %v)", a, b, x)
			}
		}
	}
}

// gossipSim drives membership instances through an explicit message queue
// so a test can exercise exact interleavings of concurrent view gossip.
// Reissues returned by apply are broadcast like the daemon does.
type gossipSim struct {
	procs map[string]*membership
	queue []gossipMsg
}

type gossipMsg struct {
	to string
	v  *wire.MemberView
}

// broadcast enqueues v for every process it lists except from.
func (g *gossipSim) broadcast(from string, v *wire.MemberView) {
	for _, p := range v.Procs {
		if p == from {
			continue
		}
		if _, ok := g.procs[p]; ok {
			g.queue = append(g.queue, gossipMsg{to: p, v: v})
		}
	}
}

// drain delivers queued views (lowest index first) until quiescent,
// broadcasting any reissue an apply produces. Returns the number of
// deliveries, bounded to catch livelock.
func (g *gossipSim) drain(t *testing.T) int {
	t.Helper()
	n := 0
	for len(g.queue) > 0 {
		if n++; n > 10_000 {
			t.Fatal("gossip did not quiesce: reissue livelock")
		}
		msg := g.queue[0]
		g.queue = g.queue[1:]
		m := g.procs[msg.to]
		if _, _, reissue := m.apply(msg.v); reissue != nil {
			g.broadcast(msg.to, reissue)
		}
	}
	return n
}

// TestConcurrentOriginatorsConverge is the regression test for the
// "strictly newer version wins" arbitration: two joiners admitted through
// different seed processes in the same instant produced two version-2
// views, and whichever a process saw first stuck — a permanent split. The
// total order picks one winner everywhere, and the losing seed
// re-originates its admission on top of the winner, so both joiners are
// admitted and every process records a single linear version history.
func TestConcurrentOriginatorsConverge(t *testing.T) {
	const (
		addrA = "10.0.0.1:7570"
		addrB = "10.0.0.2:7570"
		addrX = "10.0.0.3:7570"
		addrY = "10.0.0.4:7570"
	)
	boot := []string{addrA, addrB}
	// Both interleavings of the two admission gossips must converge to the
	// same final view regardless of which same-version origin hashes higher.
	for _, xFirst := range []bool{true, false} {
		t.Run(fmt.Sprintf("xFirst=%v", xFirst), func(t *testing.T) {
			A := newMembership(addrA, boot, 1)
			B := newMembership(addrB, boot, 1)
			X := newMembership(addrX, boot, 0)
			Y := newMembership(addrY, boot, 0)
			sim := &gossipSim{procs: map[string]*membership{addrA: A, addrB: B, addrX: X, addrY: Y}}

			// The same instant: A admits X and B admits Y, both on version 1.
			vX, changed := A.add(addrX)
			if !changed || vX.Version != 2 || vX.Origin != addrA {
				t.Fatalf("admission of X: %+v", vX)
			}
			vY, changed := B.add(addrY)
			if !changed || vY.Version != 2 || vY.Origin != addrB {
				t.Fatalf("admission of Y: %+v", vY)
			}
			// Each joiner adopts its admission view, then gossips it to the
			// members it lists — the JoinOverlay flow.
			X.apply(vX)
			Y.apply(vY)
			if xFirst {
				sim.broadcast(addrX, vX)
				sim.broadcast(addrY, vY)
			} else {
				sim.broadcast(addrY, vY)
				sim.broadcast(addrX, vX)
			}
			sim.drain(t)

			// Both joiners admitted, every process holding the identical view.
			want := A.view()
			if len(want.Procs) != 4 {
				t.Fatalf("final view lost a member: %+v", want)
			}
			if want.Version != 3 {
				t.Fatalf("final version = %d, want 3 (winning v2 + one reissue)", want.Version)
			}
			for name, m := range sim.procs {
				got := m.view()
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s diverged: %+v vs %+v", name, got, want)
				}
			}

			// Single linear history: every process's adopted stamps strictly
			// increase under the total order, and all end on the same stamp.
			final := viewStamp{version: want.Version, origin: want.Origin}
			for name, m := range sim.procs {
				stamps := m.history
				for i := 1; i < len(stamps); i++ {
					prev, cur := stamps[i-1], stamps[i]
					if !viewAfter(cur.version, cur.origin, prev.version, prev.origin) {
						t.Fatalf("%s history not linear: %+v then %+v", name, prev, cur)
					}
				}
				if last := stamps[len(stamps)-1]; last != final {
					t.Fatalf("%s ended on %+v, want %+v", name, last, final)
				}
			}
		})
	}
}

// TestReissueSurvivesRepeatedConflict: the losing originator's reissue can
// itself collide with yet another same-version view; the pending delta must
// keep re-originating until it lands in the winning lineage.
func TestReissueSurvivesRepeatedConflict(t *testing.T) {
	const (
		addrA = "10.0.0.1:7570"
		addrB = "10.0.0.2:7570"
		addrX = "10.0.0.3:7570"
	)
	boot := []string{addrA, addrB}
	A := newMembership(addrA, boot, 1)
	B := newMembership(addrB, boot, 1)

	// A admits X but its v2 never reaches B; meanwhile B sees a competing
	// v2 from elsewhere that wins the arbitration, then a v3 on top of it.
	vX, _ := A.add(addrX)
	winner2 := &wire.MemberView{Version: 2, Origin: addrB, Procs: boot}
	if viewAfter(winner2.Version, winner2.Origin, vX.Version, vX.Origin) {
		// Make sure the competing origin actually wins over A's view so the
		// reissue path is exercised; otherwise swap roles.
		_, _, reissue := A.apply(winner2)
		if reissue == nil {
			t.Fatal("losing originator did not reissue its pending admission")
		}
		if reissue.Version != 3 || reissue.Origin != addrA {
			t.Fatalf("reissue stamp: %+v", reissue)
		}
		found := false
		for _, p := range reissue.Procs {
			found = found || p == addrX
		}
		if !found {
			t.Fatalf("reissue dropped the pending joiner: %+v", reissue)
		}
	} else {
		// A's stamp wins; B adopting it is the uninteresting direction, but
		// the pending delta on B's side must still reissue.
		vB, _ := B.add(addrX) // same-version change B originated
		_ = vB
		_, _, reissue := B.apply(vX)
		if reissue == nil {
			t.Fatal("losing originator did not reissue its pending admission")
		}
		if reissue.Version != vX.Version+1 {
			t.Fatalf("reissue version = %d, want %d", reissue.Version, vX.Version+1)
		}
	}
}

// TestPendingDroppedWhenOriginSpeaksForItself pins the leave-hazard rule:
// a view originated by the very address a pending delta concerns clears
// the delta — a process speaks for its own membership, and resurrecting
// it against its will would fork the lineage it started.
func TestPendingDroppedWhenOriginSpeaksForItself(t *testing.T) {
	const (
		addrA = "10.0.0.1:7570"
		addrB = "10.0.0.2:7570"
		addrX = "10.0.0.3:7570"
	)
	A := newMembership(addrA, []string{addrA, addrB}, 1)
	vX, _ := A.add(addrX) // pending: add X
	// X itself originates its departure on top of a higher version.
	leave := &wire.MemberView{Version: vX.Version + 1, Origin: addrX, Procs: []string{addrA, addrB}}
	changed, _, reissue := A.apply(leave)
	if !changed {
		t.Fatal("departure view not adopted")
	}
	if reissue != nil {
		t.Fatalf("pending admission resurrected a departed originator: %+v", reissue)
	}
	A.mu.Lock()
	pending := A.pending
	A.mu.Unlock()
	if pending != nil {
		t.Fatal("pending delta not cleared by the originator's own view")
	}
}

// TestViewHistoryBounded: the adopted-stamp history retains only a
// recent suffix, so unbounded membership churn on a long-lived daemon
// cannot grow it without bound, and the retained suffix still ends on
// the installed view.
func TestViewHistoryBounded(t *testing.T) {
	const (
		addrA = "10.0.0.1:7570"
		addrB = "10.0.0.2:7570"
	)
	m := newMembership(addrA, []string{addrA}, 1)
	for i := 0; i < 10*maxViewHistory; i++ {
		if i%2 == 0 {
			m.add(addrB)
		} else {
			m.remove(addrB)
		}
	}
	stamps := m.history
	if len(stamps) != maxViewHistory {
		t.Errorf("history holds %d stamps after churn, want cap %d", len(stamps), maxViewHistory)
	}
	last := stamps[len(stamps)-1]
	if last.version != m.version {
		t.Errorf("history ends on version %d, installed view is %d", last.version, m.version)
	}
	for i := 1; i < len(stamps); i++ {
		if !viewAfter(stamps[i].version, stamps[i].origin, stamps[i-1].version, stamps[i-1].origin) {
			t.Fatalf("retained history not linear: %+v then %+v", stamps[i-1], stamps[i])
		}
	}
}

// A node's owner is read off the position chord holds for it (chord.Node.ID),
// not hashed from its key on every delivery. Every daemon node, a rejoined one
// too, sits at Hash(its key), so over several views the owner of its position
// is the owner of its hashed key.
func TestOwnerOfReadsTheNodesPosition(t *testing.T) {
	srv, err := New(defaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	eng := srv.Cluster().Engine()
	gone := srv.Cluster().Overlay().NodeAt(7)
	eng.FailNode(gone)
	if _, err := eng.RejoinNode(gone.Key()); err != nil {
		t.Fatal(err)
	}
	// byKey is the owner a view gave a node key before: the member position
	// that succeeds the key's hash.
	byKey := func(m *membership, key string) string {
		pos := id.Hash(key)
		for _, p := range m.points {
			if !p.pos.Less(pos) {
				return p.addr
			}
		}
		return m.points[0].addr
	}
	procs := []string{"10.0.0.1:7570", "10.0.0.2:7570", "10.0.0.3:7570", "10.0.0.4:7571", "10.0.0.5:7570"}
	for n := 1; n <= len(procs); n++ {
		m := newMembership(procs[0], procs[:n], 1)
		for _, node := range srv.Cluster().Overlay().Nodes() {
			if !node.ID().Equal(id.Hash(node.Key())) {
				t.Fatalf("node %s sits at %s, not at the hash of its key", node.Key(), node.ID())
			}
			if got, want := m.ownerOf(node.ID()), byKey(m, node.Key()); got != want {
				t.Fatalf("%d processes: node %s is owned by %s, by its key %s", n, node.Key(), got, want)
			}
		}
	}
}
