// Package chord implements the Chord structured overlay network of
// Chapter 2: a 160-bit consistent-hashing ring with finger tables,
// successor lists and predecessor pointers, plus the API extensions of
// Section 2.3 — send(msg, I) and the recursive multisend(M, L) — with
// per-message overlay-hop accounting.
//
// The overlay runs in-process: every node is an object and messages are
// routed hop by hop through real finger tables, charging each hop to a
// metrics.Traffic ledger. This reproduces the simulation environment of the
// paper's evaluation (Chapter 5), whose metrics are purely algorithmic
// (hops, messages, per-node load).
package chord

import (
	"fmt"
	"sync/atomic"

	"cqjoin/internal/id"
	"cqjoin/internal/lockdep"
)

// Message is an application-level message routed through the overlay. The
// routing layer only needs a kind for the traffic ledger; payloads are
// opaque to chord and interpreted by the Handler.
type Message interface {
	// Kind names the message class for traffic accounting
	// (e.g. "al-index", "vl-index", "join", "notification").
	Kind() string
}

// Handler processes messages delivered to a node. The query-processing
// engine of Chapter 4 implements Handler; chord itself never inspects
// payloads.
type Handler interface {
	HandleMessage(on *Node, msg Message)
}

// KeyTransferrer is implemented by handlers that store data under ring
// identifiers. When ring responsibility changes (a node joins, leaves or
// reconnects), TransferKeys is invoked so items with identifiers in the
// half-open ring interval (lo, hi] move from one node to another. This is
// the Chord key hand-off that Section 4.6 relies on to replay stored
// notifications when a subscriber reconnects.
type KeyTransferrer interface {
	TransferKeys(from, to *Node, lo, hi id.ID)
}

// Node is a Chord overlay node. All exported methods are safe for
// concurrent use.
type Node struct {
	net *Network
	key string
	id  id.ID

	alive atomic.Bool

	// run is the slice the node's walks hand their runs to the transport in,
	// kept between walks. A walk uses it only when it sets runBusy, so one
	// nested in a delivery, or a concurrent one, makes a slice of its own.
	runBusy atomic.Bool
	run     []Message

	head uint64 // id.Head(), copied into every view entry naming the node

	// view is the node's routing state (routeView), never nil: replaced
	// under mu, read without it.
	view atomic.Pointer[routeView]

	mu         lockdep.Mutex[nodeMu]
	ip         string
	nextFinger int // round-robin cursor for amortized fix-fingers
	handler    Handler
}

type nodeMu struct{} // Node.mu's lock class

// newNode makes the live node of key at ring position nid, with an empty view.
func newNode(net *Network, key string, nid id.ID) *Node {
	n := &Node{
		net:  net,
		key:  key,
		ip:   fmt.Sprintf("sim://%s", nid.Short()),
		id:   nid,
		head: nid.Head(),
	}
	n.view.Store(&routeView{})
	n.alive.Store(true)
	return n
}

// Key returns the node's unique key (Section 2.2: e.g. derived from its
// public key and/or IP address).
func (n *Node) Key() string { return n.key }

// ID returns the node's ring identifier, Hash(Key(n)).
func (n *Node) ID() id.ID { return n.id }

// IP returns the node's current simulated network address. A node keeps
// its key (and so its ring identifier) across sessions, but may come back
// under a different address (Section 4.6).
func (n *Node) IP() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.ip
}

// SetIP changes the node's simulated network address, modelling a
// reconnection from elsewhere. Peers holding the old address will miss it
// and fall back to DHT routing until they learn the new one.
func (n *Node) SetIP(ip string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.ip = ip
}

// Alive reports whether the node is currently part of the overlay.
func (n *Node) Alive() bool { return n.alive.Load() }

// SetHandler installs the application-level message handler.
func (n *Node) SetHandler(h Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.handler = h
}

// Handler returns the installed application-level handler, or nil.
func (n *Node) Handler() Handler {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.handler
}

// Successor returns the node's immediate successor: the first live entry of
// its successor list. A node in a singleton network is its own successor.
func (n *Node) Successor() *Node {
	for _, s := range n.view.Load().succs {
		if s.node != nil && s.node.Alive() {
			return s.node
		}
	}
	return n
}

// Predecessor returns the node's predecessor pointer, or nil when unknown.
func (n *Node) Predecessor() *Node {
	if p := n.view.Load().pred.node; p != nil && p.Alive() {
		return p
	}
	return nil
}

// SuccessorList returns a copy of the node's successor list.
func (n *Node) SuccessorList() []*Node {
	succs := n.view.Load().succs
	out := make([]*Node, len(succs))
	for i, s := range succs {
		out[i] = s.node
	}
	return out
}

// Finger returns finger-table entry j (1-based, 1 <= j <= id.Bits): the
// first node that succeeds id(n) + 2^(j-1) on the ring.
func (n *Node) Finger(j int) *Node {
	if j < 1 || j > id.Bits {
		panic(fmt.Sprintf("chord: finger index %d out of range [1,%d]", j, id.Bits))
	}
	for _, f := range n.view.Load().fingers {
		if int(f.lo) < j {
			return f.node
		}
	}
	return nil
}

// OwnsKey reports whether identifier k is in this node's arc of
// responsibility, i.e. k ∈ (pred(n), n]. A node with no predecessor
// (singleton ring) owns every key.
func (n *Node) OwnsKey(k id.ID) bool {
	p := n.view.Load().pred
	if p.node == nil || !p.node.Alive() {
		return true
	}
	return betweenRightIncl(&k, &p.node.id, &n.id, k.Head(), p.head, n.head)
}

// nextHop is the one routing step, shared by route and Multisend: the node a
// message for target leaves n toward, read from one view of what n holds. When
// target lies within the successor list's reach — (n, last live entry] — the
// hop goes to the first live entry at or past target and is final: n names the
// owner itself, and where the message lands ownership is checked
// (Network.land), so a list that lags a join costs a hop back, never a
// misdelivery. A list with no live entry reaches the whole ring and names n,
// the ring of one Successor describes.
//
// Otherwise the hop is Chord's: the furthest live finger strictly between n
// and target or, when no finger qualifies, the last live list entry, which
// target lies beyond. The view holds each run of equal table entries once,
// highest index first, so each node is examined once. Finger j is what a
// lookup of id(n) + 2^j returned, and a lookup ends at the owner, at or past
// its target: a run lies at least 2^lo clockwise of n, so one starting at or
// above BitLen(Distance(n, target)) cannot precede target — the interval test
// refuses it, and only a stray run needs that bound asked.
//
// Every interval test is decided on heads, and on full identifiers where two
// heads tie; Alive is read only of an entry inside its interval.
func (n *Node) nextHop(target id.ID) (next *Node, final bool) {
	v := n.view.Load()
	th := target.Head()
	last := entry(n)
	for j := len(v.succs) - 1; j >= 0; j-- {
		if s := v.succs[j]; s.node != nil && s.node.Alive() {
			last = s
			break
		}
	}
	if betweenRightIncl(&target, &n.id, &last.node.id, th, n.head, last.head) {
		for _, s := range v.succs {
			if s.node != nil && betweenRightIncl(&target, &n.id, &s.node.id, th, n.head, s.head) && s.node.Alive() {
				return s.node, true
			}
		}
		return last.node, true
	}
	for _, f := range v.fingers {
		if f.node == nil || !between(&f.node.id, &n.id, &target, f.head, n.head, th) {
			continue
		}
		if f.stray {
			// Distance 0 is the whole ring: target == id(n) excludes only n.
			if b := id.Distance(n.id, target).BitLen(); b > 0 && int(f.lo) >= b {
				continue
			}
		}
		if f.node.Alive() {
			return f.node, false
		}
	}
	return last.node, false
}

// String renders the node as key@shortid for logs.
func (n *Node) String() string {
	return fmt.Sprintf("%s@%s", n.key, n.id.Short())
}
