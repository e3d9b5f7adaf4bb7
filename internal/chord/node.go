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

	// run is the slice the node's walks hand their runs to the transport in,
	// kept between walks. A walk uses it only when it sets runBusy, so one
	// nested in a delivery, or a concurrent one, makes a slice of its own.
	runBusy atomic.Bool
	run     []Message

	mu         sync.Mutex
	ip         string
	pred       *Node
	succs      []*Node // successor list; succs[0] is the immediate successor
	fingers    [id.Bits]*Node
	nextFinger int // round-robin cursor for amortized fix-fingers
	handler    Handler
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

// nextHop is the one routing step, shared by route and Multisend: the node a
// message for target leaves n toward, read from everything n holds under one
// acquisition of its lock. When target lies within the successor list's reach
// — (n, last live entry] — the hop goes to the first live entry at or past
// target and is final: n names the owner itself, and where the message lands
// ownership is checked (Network.land), so a list that lags a join costs a hop
// back, never a misdelivery. A list with no live entry reaches the whole ring
// and names n, the ring of one successorLocked describes.
//
// Otherwise the hop is Chord's: the furthest live finger strictly between n
// and target or, when no finger qualifies, the last live list entry, which
// target lies beyond. Finger j is what a lookup of id(n) + 2^j returned, and a
// lookup ends at the owner, at or past its target: the entry lies at least 2^j
// clockwise of n and cannot precede a target closer than that. So the scan
// starts at the highest finger that can, and — runs of table entries being one
// node — examines each node once.
func (n *Node) nextHop(target id.ID) (next *Node, final bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	last := n
	for j := len(n.succs) - 1; j >= 0; j-- {
		if s := n.succs[j]; s != nil && s.Alive() {
			last = s
			break
		}
	}
	if id.BetweenRightIncl(target, n.id, last.id) {
		for _, s := range n.succs {
			if s != nil && s.Alive() && id.BetweenRightIncl(target, n.id, s.id) {
				return s, true
			}
		}
		return last, true
	}
	// Distance 0 is the whole ring: target == id(n) excludes only n.
	top := id.Bits - 1
	if b := id.Distance(n.id, target).BitLen(); b > 0 {
		top = b - 1
	}
	var seen *Node
	for j := top; j >= 0; j-- {
		f := n.fingers[j]
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

// String renders the node as key@shortid for logs.
func (n *Node) String() string {
	return fmt.Sprintf("%s@%s", n.key, n.id.Short())
}
