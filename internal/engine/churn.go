package engine

import (
	"cqjoin/internal/chord"
)

// Engine-level churn: crash and rejoin with the state semantics the thesis
// assumes (Section 4.6). chord.Network.Fail models the overlay side of a
// crash — routing recovers through successor lists — but says nothing about
// the crashed node's stored queries, tuples and notifications. In a real
// deployment those survive on the successor-list replicas and the successor
// takes ownership of the dead node's arc. The simulation keeps one copy of
// every item, so FailNode models "replicas take over" by handing the whole
// state to the node that inherits the arc.

// FailNode crashes n: it leaves the overlay abruptly (no goodbye protocol,
// pointers recover via successor lists and stabilization) and the stored
// state of its arc re-homes to the new arc owner, as replication would
// ensure. Stored notifications whose subscriber is the heir itself are
// replayed. No-op for a node that is already down.
func (e *Engine) FailNode(n *chord.Node) { e.failNode(n, e.net.Fail) }

// FailNodeProtocol crashes n like FailNode but uses chord's protocol-only
// removal: no oracle pointer repairs run, so the overlay heals purely
// through check-predecessor, successor-list failover and stabilization.
// The state plane still re-homes the dead node's arc to its oracle heir —
// that models "successor-list replicas take over", which is orthogonal to
// how fast the pointer plane converges.
func (e *Engine) FailNodeProtocol(n *chord.Node) { e.failNode(n, e.net.FailProtocol) }

// failNode takes n out of the overlay with fail and re-homes its state.
func (e *Engine) failNode(n *chord.Node, fail func(*chord.Node)) {
	if !n.Alive() {
		return
	}
	st := e.state(n)
	fail(n)
	// The alive owner of n's former arc, post-crash.
	if heir := e.net.OracleSuccessor(n.ID()); heir != nil && heir != n {
		st.TransferKeys(n, heir, n.ID(), n.ID())
	}
	e.Detach(n)
}

// JoinNodeProtocol adds a brand-new node through the join protocol: only a
// successor lookup runs at join time; the ring splice and the key hand-off
// to the joiner happen when stabilization next runs (the successor adopts
// the joiner on notify and transfers (oldPred, joiner] through the
// engine's TransferKeys).
func (e *Engine) JoinNodeProtocol(key string) (*chord.Node, error) {
	n, err := e.net.JoinProtocol(key)
	if err != nil {
		return nil, err
	}
	e.Attach(n)
	return n, nil
}

// LeaveNodeProtocol removes n voluntarily through the leave protocol: n
// hands its whole arc to its successor (replaying stored notifications
// whose subscriber is the successor) and departs; remaining stale pointers
// heal through stabilization.
func (e *Engine) LeaveNodeProtocol(n *chord.Node) {
	if !n.Alive() {
		return
	}
	e.net.LeaveProtocol(n)
	e.Detach(n)
}

// RejoinNode brings a previously crashed subscriber back under the same
// key, hence the same ring position Hash(key). The join's key hand-off
// returns the arc's state to it, and TransferKeys replays the
// notifications that were stored for it while it was offline
// (Section 4.6). The rejoined incarnation is a distinct *chord.Node with a
// fresh engine state and, in general, a new IP address — exactly the
// situation the stale-IP notification ladder of notify.go must survive.
func (e *Engine) RejoinNode(key string) (*chord.Node, error) {
	n, err := e.net.Join(key)
	if err != nil {
		return nil, err
	}
	// Join's TransferKeys already attached the state lazily; Attach is
	// idempotent and guarantees the handler is bound even on an empty ring.
	e.Attach(n)
	return n, nil
}
