package chord

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cqjoin/internal/id"
)

// searchFingers is n's finger table searched entry by entry in the ring
// index, entry j the owner of id(n) + 2^j: the definition fingersOfLocked,
// which searches only the entries past the gap to n's successor, must equal.
func searchFingers(net *Network, n *Node) (table [id.Bits]*Node) {
	net.mu.RLock()
	defer net.mu.RUnlock()
	for j := range table {
		table[j] = net.ring[net.ringIndexLocked(n.id.AddPow2(uint(j)))%len(net.ring)]
	}
	return table
}

func builtFingers(net *Network, n *Node) [id.Bits]*Node {
	net.mu.RLock()
	defer net.mu.RUnlock()
	return net.fingersOfLocked(n)
}

// assertFingersMatchSearch holds the built table of every member, and of each
// of others (nodes no longer, or never, in the ring), to the search.
func assertFingersMatchSearch(t *testing.T, net *Network, others ...*Node) {
	t.Helper()
	for _, n := range append(net.Nodes(), others...) {
		got, want := builtFingers(net, n), searchFingers(net, n)
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("%d nodes: %s (alive %v) finger entry %d = %s, the search gives %s",
					net.Size(), n, n.Alive(), j, got[j], want[j])
			}
		}
	}
}

// assertInstalledFingersExact holds what RepairAll installed in every member's
// view to the search.
func assertInstalledFingersExact(t *testing.T, net *Network) {
	t.Helper()
	for _, n := range net.Nodes() {
		if got, want := n.spelled().fingers, searchFingers(net, n); got != want {
			t.Fatalf("%d nodes: %s's installed finger table differs from the search", net.Size(), n)
		}
	}
}

func TestFingersMatchTheSearchOnBuiltRings(t *testing.T) {
	for _, size := range []int{1, 2, 3, 256, 2048} {
		net := New(Config{})
		net.AddNodes("f", size)
		assertFingersMatchSearch(t, net)
		assertInstalledFingersExact(t, net)
	}
}

// Nodes one identifier apart, across the top of the identifier space and
// back to 0, leave a gap of one: only entry 0 is written unsearched.
func TestFingersMatchTheSearchOnAdjacentIdentifiers(t *testing.T) {
	net := New(Config{})
	top := id.ID{}.Sub(id.FromUint64(2))
	mid := id.FromUint64(1 << 40)
	for i, nid := range []id.ID{top, top.AddPow2(0), id.ID{}, id.FromUint64(1), mid, mid.AddPow2(0), mid.AddPow2(1)} {
		if _, err := net.JoinAt(fmt.Sprintf("adj-%d", i), nid); err != nil {
			t.Fatalf("join: %v", err)
		}
		assertFingersMatchSearch(t, net)
	}
	net.RepairAll()
	assertInstalledFingersExact(t, net)
}

func TestFingersMatchTheSearchOnTiedHeads(t *testing.T) {
	net, _ := tiedRing(t, rand.New(rand.NewSource(21)), 5, 6)
	assertFingersMatchSearch(t, net)
	net.RepairAll()
	assertInstalledFingersExact(t, net)
}

// After a leave, a crash and a repair, and for nodes that left the ring —
// one whose position another node has since taken among them — the table
// is still the search's.
func TestFingersMatchTheSearchAfterChurn(t *testing.T) {
	net := New(Config{})
	net.AddNodes("c", 256)
	rng := rand.New(rand.NewSource(22))
	var gone []*Node
	for i := 0; i < 20; i++ {
		nodes := net.Nodes()
		n := nodes[rng.Intn(len(nodes))]
		if i%2 == 0 {
			net.Leave(n)
		} else {
			net.Fail(n)
		}
		gone = append(gone, n)
		assertFingersMatchSearch(t, net, gone...)
	}
	if _, err := net.JoinAt("taker", gone[0].ID()); err != nil {
		t.Fatalf("join at a departed node's position: %v", err)
	}
	assertFingersMatchSearch(t, net, append(gone, deadNode(net, "never-joined"))...)
	net.RepairAll()
	assertInstalledFingersExact(t, net)
	for len(net.Nodes()) > 1 {
		n := net.NodeAt(rng.Intn(net.Size()))
		net.Leave(n)
		gone = append(gone, n)
	}
	assertFingersMatchSearch(t, net, gone...)
	net.RepairAll()
	assertInstalledFingersExact(t, net)
}

// countingTransport delivers as the in-process default does, and counts.
type countingTransport struct {
	sim Transport
	n   atomic.Int64
}

func (c *countingTransport) Deliver(from, dst *Node, msg Message) bool {
	c.n.Add(1)
	return c.sim.Deliver(from, dst, msg)
}

func (c *countingTransport) DeliverBatch(from, dst *Node, msgs []Message) []bool {
	c.n.Add(int64(len(msgs)))
	return c.sim.DeliverBatch(from, dst, msgs)
}

// passInterceptor forwards every delivery once, and counts.
type passInterceptor struct{ n atomic.Int64 }

func (p *passInterceptor) Deliver(from, dst *Node, msg Message, forward func() bool) int {
	p.n.Add(1)
	if forward() {
		return 1
	}
	return 0
}

type atomicCounter struct{ n atomic.Int64 }

func (h *atomicCounter) HandleMessage(on *Node, msg Message) { h.n.Add(1) }

// The transport and the interceptor are slots a delivery reads once: they
// may be swapped while routes are in flight. Every send must still be
// delivered once, through whichever transport and interceptor it read.
func TestTransportAndInterceptorSwapWhileRoutesAreInFlight(t *testing.T) {
	net := New(Config{})
	net.AddNodes("swap", 32)
	h := &atomicCounter{}
	for _, n := range net.Nodes() {
		n.SetHandler(h)
	}
	custom := &countingTransport{sim: net.Transport()}
	ic := &passInterceptor{}
	var (
		wg   sync.WaitGroup
		sent atomic.Int64
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
				src := net.NodeAt(rng.Intn(32))
				var k id.ID
				rng.Read(k[:])
				if _, _, err := src.Send(testMsg{kind: "swap"}, k); err != nil {
					t.Errorf("send: %v", err)
					return
				}
				for i := range batch {
					rng.Read(batch[i].Target[:])
					batch[i].Msg = testMsg{kind: "swap"}
				}
				recipients, _, err := src.Multisend(batch, nil)
				if err != nil {
					t.Errorf("multisend: %v", err)
					return
				}
				for _, r := range recipients {
					if r == nil {
						t.Errorf("multisend left a message undelivered")
						return
					}
				}
				sent.Add(1 + int64(len(batch)))
			}
		}(int64(w))
	}
	for i := 0; i < 200 && !t.Failed(); i++ {
		// Swap only once a message has gone since the last swap.
		for before := sent.Load(); sent.Load() == before && !t.Failed(); {
			runtime.Gosched()
		}
		if i%2 == 0 {
			net.SetTransport(custom)
			net.SetInterceptor(ic)
		} else {
			net.SetTransport(nil)
			net.SetInterceptor(nil)
		}
	}
	close(stop)
	wg.Wait()
	if got, want := h.n.Load(), sent.Load(); got != want {
		t.Fatalf("handlers ran %d times for %d messages sent", got, want)
	}
	if net.Interceptor() != nil || net.Transport() != net.simT {
		t.Fatal("after SetTransport(nil) and SetInterceptor(nil), the default must be in effect")
	}
	t.Logf("%d messages, %d through the custom transport, %d through the interceptor",
		sent.Load(), custom.n.Load(), ic.n.Load())
}

var sinkTransport Transport

// A delivery reads the transport slot: with the default or a custom
// transport in it, that allocates nothing.
func TestTransportReadAllocatesNothing(t *testing.T) {
	net := New(Config{})
	for _, tr := range []Transport{nil, &countingTransport{}, nil} {
		net.SetTransport(tr)
		if n := testing.AllocsPerRun(100, func() { sinkTransport = net.Transport() }); n != 0 {
			t.Fatalf("Transport() with %T installed: %v allocations, want 0", tr, n)
		}
	}
}
