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
	"sync"
	"sync/atomic"

	"cqjoin/internal/id"
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

	mu         sync.Mutex
	ip         string
	pred       *Node
	succs      []*Node // successor list; succs[0] is the immediate successor
	fingers    [id.Bits]*Node
	nextFinger int // round-robin cursor for amortized fix-fingers
	// strayFingers counts the entries closer to n than their slot allows
	// (setFingerLocked); zero on every ring the oracle built.
	strayFingers int
	handler      Handler
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

// Network returns the overlay the node belongs to.
func (n *Node) Network() *Network { return n.net }

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

// Successor returns the node's immediate successor. A node in a singleton
// network is its own successor.
func (n *Node) Successor() *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.successorLocked()
}

func (n *Node) successorLocked() *Node {
	for _, s := range n.succs {
		if s != nil && s.Alive() {
			return s
		}
	}
	return n
}

// Predecessor returns the node's predecessor pointer, or nil when unknown.
func (n *Node) Predecessor() *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pred != nil && !n.pred.Alive() {
		return nil
	}
	return n.pred
}

// SuccessorList returns a copy of the node's successor list.
func (n *Node) SuccessorList() []*Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Node, len(n.succs))
	copy(out, n.succs)
	return out
}

// Finger returns finger-table entry j (1-based, 1 <= j <= id.Bits): the
// first node that succeeds id(n) + 2^(j-1) on the ring.
func (n *Node) Finger(j int) *Node {
	if j < 1 || j > id.Bits {
		panic(fmt.Sprintf("chord: finger index %d out of range [1,%d]", j, id.Bits))
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.fingers[j-1]
}

// OwnsKey reports whether identifier k is in this node's arc of
// responsibility, i.e. k ∈ (pred(n), n]. A node with no predecessor
// (singleton ring) owns every key.
func (n *Node) OwnsKey(k id.ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.pred == nil || !n.pred.Alive() {
		return true
	}
	return id.BetweenRightIncl(k, n.pred.id, n.id)
}

// setFingerLocked stores finger-table entry j (0-based) and keeps count of
// the stray entries: an exact finger j is Successor(id(n) + 2^j) and so lies
// at least 2^j clockwise of n, but a lookup answered from pointers that
// predate a join can name a node closer than that. closestPrecedingAlive
// may skip the fingers too far for its target only while there is no stray
// one. The caller holds n.mu.
func (n *Node) setFingerLocked(j int, f *Node) {
	stray := func(f *Node) int {
		if f != nil && f != n && id.Distance(n.id, f.id).BitLen() <= j {
			return 1
		}
		return 0
	}
	n.strayFingers += stray(f) - stray(n.fingers[j])
	n.fingers[j] = f
}

// closestPrecedingAlive returns the furthest finger of n that lies strictly
// between n and target on the ring and is still alive — the next hop in
// Chord routing. It returns n itself when no finger qualifies.
//
// Finger j lies at least 2^j clockwise of n, so it cannot precede a target
// closer than that: the scan starts at the highest finger that can, and —
// runs of table entries being one node, all the low ones the successor —
// examines each node once.
func (n *Node) closestPrecedingAlive(target id.ID) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	top := id.Bits - 1
	if n.strayFingers == 0 {
		// Distance 0 is the whole ring: target == id(n) excludes only n.
		if b := id.Distance(n.id, target).BitLen(); b > 0 {
			top = b - 1
		}
	}
	var last *Node
	for j := top; j >= 0; j-- {
		f := n.fingers[j]
		if f == last {
			continue
		}
		last = f
		if f == nil || !f.Alive() {
			continue
		}
		if id.Between(f.id, n.id, target) {
			return f
		}
	}
	// Fall back on the successor list, which may be closer than any finger
	// after churn.
	for j := len(n.succs) - 1; j >= 0; j-- {
		s := n.succs[j]
		if s != nil && s.Alive() && id.Between(s.id, n.id, target) {
			return s
		}
	}
	return n
}

// String renders the node as key@shortid for logs.
func (n *Node) String() string {
	return fmt.Sprintf("%s@%s", n.key, n.id.Short())
}
