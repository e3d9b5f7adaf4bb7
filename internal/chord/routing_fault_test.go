package chord

import (
	"errors"
	"math/rand"
	"testing"

	"cqjoin/internal/id"
)

// Regression: routing must keep agreeing with the oracle on a ring that is
// mid-stabilization — nodes have crashed, only partial maintenance rounds
// have run, finger tables are stale — by falling back on successor chains.
// Running enough cheap rounds must then converge to the exact ring without
// any oracle repair.
func TestRoutingMidStabilization(t *testing.T) {
	net := New(Config{SuccessorListLen: 8})
	net.AddNodes("mid", 64)
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 8; i++ {
		nodes := net.Nodes()
		net.Fail(nodes[rng.Intn(len(nodes))])
	}

	// One partial round: predecessors and successors heal, but only 4 of
	// the 160 finger entries per node are refreshed.
	net.StabilizeOnce(4)
	assertRoutingMatchesOracle(t, net, rng, 200)

	// Keep running cheap rounds; 40 rounds of 4 fingers cycle every entry.
	for r := 0; r < 40; r++ {
		net.StabilizeOnce(4)
	}
	assertRingExact(t, net)
	for _, n := range net.Nodes() {
		for j := 1; j <= id.Bits; j++ {
			start := n.ID().AddPow2(uint(j - 1))
			if got, want := n.Finger(j), net.OracleSuccessor(start); got != want {
				t.Fatalf("finger %d of %s = %v, want %v", j, n, got, want)
			}
		}
	}
}

// Regression: a multisend that gets stuck mid-ring must still charge the
// hops it travelled and report the deliveries it completed, leaving nil
// recipient slots for the rest, so callers can retry exactly the failures.
func TestMultisendPartialHopAccounting(t *testing.T) {
	net := New(Config{})
	net.AddNodes("acct", 8)

	// Poison one node: its whole successor list is dead, but its
	// predecessor is alive so it does not believe it owns the full ring. A
	// batch relayed through it for keys it does not own can make no
	// progress.
	ring := net.Nodes()
	poisoned := ring[0]
	knowsOnly(poisoned, deadNode(net, "acct-dead"))

	// Target a key owned by the poisoned node's true successor, so the
	// batch has to route through/over it.
	target := ring[1].ID()
	before := net.Traffic().Hops("probe")
	recipients, hops, err := poisoned.Multisend([]Deliverable{
		{Target: poisoned.ID(), Msg: testMsg{kind: "probe"}}, // deliverable locally
		{Target: target, Msg: testMsg{kind: "probe"}},        // cannot make progress
	}, nil)
	if !errors.Is(err, ErrRoutingFailed) {
		t.Fatalf("err = %v, want ErrRoutingFailed", err)
	}
	if recipients[0] != poisoned {
		t.Fatalf("local deliverable not delivered: recipients = %v", recipients)
	}
	if recipients[1] != nil {
		t.Fatalf("stuck deliverable reported a recipient: %v", recipients[1])
	}
	if got := net.Traffic().Hops("probe") - before; got != int64(hops) {
		t.Fatalf("ledger charged %d hops, Multisend reported %d", got, hops)
	}

	// The same dead end met mid-ring: the batch has made legs by then, and
	// what it strands moved its bytes over every one of them — the head of the
	// list in full, the message behind it less what the two share.
	big := New(Config{})
	big.SetSizer(sizeSized)
	big.AddNodes("acct-big", 64)
	origin, mid, far, legs := strandingWalk(t, big)
	a := sizedMsg{kind: "probe-a", size: 100, shared: 60, group: 1}
	b := sizedMsg{kind: "probe-b", size: 90, shared: 60, group: 1}
	recipients, hops, err = origin.Multisend([]Deliverable{{Target: far, Msg: a}, {Target: far, Msg: b}}, nil)
	if !errors.Is(err, ErrRoutingFailed) || hops != legs || recipients[0] != nil || recipients[1] != nil {
		t.Fatalf("multisend through %s: recipients %v after %d hops (%v), want none after %d and ErrRoutingFailed", mid, recipients, hops, err, legs)
	}
	if got, want := big.Traffic().Bytes("probe-a"), int64(100*legs); got != want {
		t.Errorf("the stranded head was charged %d bytes, want %d: all of it on each of %d legs", got, want, legs)
	}
	if got, want := big.Traffic().Bytes("probe-b"), int64(30*legs); got != want {
		t.Errorf("the message stranded behind it was charged %d bytes, want %d: what it does not share, on each of %d legs", got, want, legs)
	}
}

// knowsOnly leaves next the only node n's routing state names: its whole
// successor list and every finger.
func knowsOnly(n, next *Node) {
	n.rewire(func(t *routeTable) {
		t.succs = []*Node{next}
		for j := range t.fingers {
			t.fingers[j] = next
		}
	})
}

// sizedMsg is a test message with a wire size: size bytes in full, of which it
// leaves shared to the message before it aboard when that one is of its group
// (group 0: none). A network prices it once sizeSized is installed.
type sizedMsg struct {
	kind                string
	size, shared, group int
}

func (m sizedMsg) Kind() string { return m.kind }

func sizeSized(msg, prev Message) (int, int) {
	m, ok := msg.(sizedMsg)
	if !ok {
		return 0, 0
	}
	if p, ok := prev.(sizedMsg); ok && m.group != 0 && p.group == m.group {
		return m.size - m.shared, m.shared
	}
	return m.size, 0
}

// strandingWalk finds a walk on net that makes at least two finger hops and
// turns its last relay into a dead end — its whole successor list and every
// finger dead, its predecessor alive, so it neither owns the target nor can
// move on. It returns the walk's origin, the relay, the target and the legs a
// message for the target makes before it is stuck there.
func strandingWalk(t *testing.T, net *Network) (origin, mid *Node, target id.ID, legs int) {
	t.Helper()
	nodes := net.Nodes()
	for i := 1; i < len(nodes); i++ {
		origin, target = nodes[0], nodes[i].ID()
		mid, legs = origin, 0
		for {
			next, final := mid.nextHop(target)
			if final {
				break
			}
			mid = next
			legs++
		}
		if legs >= 2 {
			knowsOnly(mid, deadNode(net, "dead-end"))
			return origin, mid, target, legs
		}
	}
	t.Fatal("no walk on this ring makes two finger hops")
	return nil, nil, id.ID{}, 0
}

// Send's counterpart: a walk that gives up — here by running out of hop
// budget, which no ring built through the API can make it do, so every node is
// reduced to knowing its immediate successor and the network's count of itself
// cut down under the walk — charged its hops all along, and must charge the
// bytes those hops moved.
func TestFailedSendChargesTheBytesItMoved(t *testing.T) {
	net := New(Config{})
	net.SetSizer(sizeSized)
	net.AddNodes("crawl", 64)
	ring := net.Nodes()
	for i, n := range ring {
		knowsOnly(n, ring[(i+1)%len(ring)])
	}
	net.mu.Lock()
	net.ring = net.ring[:4] // budget 2*4+16 = 24 hops, the walk below needs 40
	net.mu.Unlock()
	_, hops, err := ring[0].Send(sizedMsg{kind: "crawl", size: 70}, ring[40].ID())
	if !errors.Is(err, ErrRoutingFailed) || hops != 24 {
		t.Fatalf("send: %d hops, %v; want the 24 of the budget and ErrRoutingFailed", hops, err)
	}
	if got := net.Traffic().Hops("crawl"); got != 24 {
		t.Fatalf("ledger charged %d hops, want 24", got)
	}
	if got := net.Traffic().Bytes("crawl"); got != 70*24 {
		t.Fatalf("ledger charged %d bytes, want %d: the message crossed 24 links", got, 70*24)
	}
}

// A failed lookup must charge the hops it consumed without counting a
// message, so wasted routing work during churn is visible in the ledger.
func TestDeadOriginLookupAccounting(t *testing.T) {
	net := New(Config{})
	net.AddNodes("dl", 4)
	n := net.Nodes()[0]
	net.Fail(n)
	msgsBefore := net.Traffic().Messages("lookup")
	if _, _, err := n.Lookup(id.Hash("anything")); !errors.Is(err, ErrRoutingFailed) {
		t.Fatalf("lookup from dead origin: err = %v, want ErrRoutingFailed", err)
	}
	if got := net.Traffic().Messages("lookup") - msgsBefore; got != 0 {
		t.Fatalf("failed lookup counted %d messages, want 0", got)
	}
}

// dropAll is an Interceptor that suppresses every delivery.
type dropAll struct{ dropped int }

func (d *dropAll) Deliver(from, dst *Node, msg Message, forward func() bool) int {
	d.dropped++
	return 0
}

// dupAll delivers every message twice.
type dupAll struct{}

func (dupAll) Deliver(from, dst *Node, msg Message, forward func() bool) int {
	n := 0
	if forward() {
		n++
	}
	if forward() {
		n++
	}
	return n
}

type countHandler struct{ got int }

func (h *countHandler) HandleMessage(on *Node, msg Message) { h.got++ }

// Send must surface a missing synchronous ack as ErrDropped while still
// returning the routed recipient and charging the hops, so the sender can
// retry the exact same destination.
func TestInterceptorAckSemantics(t *testing.T) {
	net := New(Config{})
	net.AddNodes("ic", 16)
	nodes := net.Nodes()
	src, dst := nodes[0], nodes[5]
	h := &countHandler{}
	dst.SetHandler(h)

	drop := &dropAll{}
	net.SetInterceptor(drop)
	got, hops, err := src.Send(testMsg{kind: "probe"}, dst.ID())
	if !errors.Is(err, ErrDropped) {
		t.Fatalf("dropped send: err = %v, want ErrDropped", err)
	}
	if got != dst {
		t.Fatalf("dropped send must still name the recipient: got %v", got)
	}
	if h.got != 0 {
		t.Fatalf("handler ran %d times despite drop", h.got)
	}
	if hops == 0 {
		t.Fatalf("expected routed hops to be reported")
	}

	net.SetInterceptor(dupAll{})
	if _, _, err := src.Send(testMsg{kind: "probe"}, dst.ID()); err != nil {
		t.Fatalf("duplicated send: %v", err)
	}
	if h.got != 2 {
		t.Fatalf("duplication delivered %d copies, want 2", h.got)
	}

	net.SetInterceptor(nil)
	if !src.DirectSend(testMsg{kind: "probe"}, dst) {
		t.Fatalf("direct send to alive node must ack")
	}
	if h.got != 3 {
		t.Fatalf("direct send delivered %d total, want 3", h.got)
	}
	net.Fail(dst)
	if src.DirectSend(testMsg{kind: "probe"}, dst) {
		t.Fatalf("direct send to dead node must not ack")
	}
}

// Interceptors see every delivery path: routed sends, direct sends and
// multisend relaying.
func TestInterceptorCoversAllPaths(t *testing.T) {
	net := New(Config{})
	net.AddNodes("cover", 12)
	nodes := net.Nodes()
	drop := &dropAll{}
	net.SetInterceptor(drop)

	src := nodes[0]
	if _, _, err := src.Send(testMsg{kind: "probe"}, nodes[4].ID()); !errors.Is(err, ErrDropped) {
		t.Fatalf("send: err = %v, want ErrDropped", err)
	}
	if src.DirectSend(testMsg{kind: "probe"}, nodes[5]) {
		t.Fatalf("direct send must miss its ack under dropAll")
	}
	recipients, _, err := src.Multisend([]Deliverable{
		{Target: nodes[2].ID(), Msg: testMsg{kind: "probe"}},
		{Target: nodes[7].ID(), Msg: testMsg{kind: "probe"}},
	}, nil)
	if err != nil {
		t.Fatalf("multisend: %v", err)
	}
	for i, r := range recipients {
		if r != nil {
			t.Fatalf("recipients[%d] = %v, want nil under dropAll", i, r)
		}
	}
	if drop.dropped != 4 {
		t.Fatalf("interceptor saw %d deliveries, want 4", drop.dropped)
	}
}
