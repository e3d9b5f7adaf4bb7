package chord

import "cqjoin/internal/id"

// This file implements Chord's periodic maintenance protocol from
// Section 2.2: stabilize (learn about recently joined successors), notify
// (update predecessor pointers), fix-fingers (refresh finger-table entries
// via lookups) and check-predecessor (detect a failed predecessor).
//
// The simulator normally installs exact pointers directly (Network.Join,
// Network.RepairAll) because the paper's experiments run on stable
// networks; the protocol below exists so churn behaviour — the claim that
// pointers converge after joins, leaves and failures — is reproduced and
// testable without the oracle.

// Stabilize runs one stabilization round on n: it asks its successor for
// the successor's predecessor p, adopts p as its new successor when p has
// slipped in between, notifies the (possibly new) successor of n's
// existence, and refreshes its successor list.
//
// It is split into stabilizeAdopt and stabilizeNotify so tests can wedge a
// concurrent join between the two halves — the exact lost-update window
// Zave's corrected protocol closes (churn_test.go exercises it).
func (n *Node) Stabilize() {
	succ := n.stabilizeAdopt()
	if succ == nil {
		return
	}
	n.stabilizeNotify(succ)
}

// stabilizeAdopt is the read half of stabilize: it picks the node to
// notify — the current successor, or the successor's predecessor when one
// has slipped in between. nil means there is nothing to do (dead node or
// singleton ring).
func (n *Node) stabilizeAdopt() *Node {
	if !n.Alive() {
		return nil
	}
	succ := n.Successor()
	if succ == n {
		// Singleton ring: nothing to learn.
		return nil
	}
	if p := succ.Predecessor(); p != nil && p.Alive() && id.Between(p.ID(), n.ID(), succ.ID()) {
		succ = p
	}
	return succ
}

// stabilizeNotify is the write half of stabilize: notify the chosen
// successor and refresh the successor list from it.
func (n *Node) stabilizeNotify(succ *Node) {
	succ.notify(n)

	// Refresh the successor list: succ followed by succ's list, truncated.
	tail := succ.SuccessorList()
	list := make([]*Node, 0, n.net.succListLen)
	list = append(list, succ)
	for _, s := range tail {
		if len(list) >= n.net.succListLen {
			break
		}
		if s != nil && s.Alive() && s != n {
			list = append(list, s)
		}
	}
	n.mu.Lock()
	n.view.Store(n.view.Load().withSuccs(entries(list)))
	n.mu.Unlock()
}

// notify tells n that node p believes it is n's predecessor; n adopts p
// when it has no predecessor or p lies between the current predecessor and
// n on the ring.
//
// Adopting a new predecessor shrinks n's arc of responsibility from
// (old, n] to (p, n]: the keys in (old, p] now belong to p, and n is the
// node holding them. When the displaced predecessor is still alive — i.e.
// p joined between two live nodes, rather than replacing a dead one — n
// hands those keys to p through the application's KeyTransferrer. This is
// the protocol-driven half of the Chord key hand-off; oracle joins
// (Network.JoinAt) perform the same transfer eagerly. When the old
// predecessor is nil or dead there is nothing to split: either n owned the
// whole ring, or crash hand-off already rehomed the dead node's keys.
func (n *Node) notify(p *Node) {
	if p == n || !p.Alive() {
		return
	}
	n.mu.Lock()
	v := n.view.Load()
	old := v.pred.node
	adopted := old != p && (old == nil || !old.Alive() || id.Between(p.ID(), old.ID(), n.ID()))
	if adopted {
		n.view.Store(v.withPred(p))
	}
	h := n.handler
	n.mu.Unlock()
	if !adopted || old == nil || !old.Alive() {
		return
	}
	if kt, ok := h.(KeyTransferrer); ok {
		kt.TransferKeys(n, p, old.ID(), p.ID())
	}
}

// CheckPredecessor clears n's predecessor pointer when the predecessor has
// failed, so a live node can claim the slot on the next notify.
func (n *Node) CheckPredecessor() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if v := n.view.Load(); v.pred.node != nil && !v.pred.node.Alive() {
		n.view.Store(v.withPred(nil))
	}
}

// FixFinger refreshes finger-table entry j (1-based) by looking up
// Successor(id(n) + 2^(j-1)) through the overlay. The lookup hops are
// charged to the "chord-maintain" traffic kind.
func (n *Node) FixFinger(j int) {
	if j < 1 || j > id.Bits {
		return
	}
	start := n.ID().AddPow2(uint(j - 1))
	dst, hops, err := n.route(start)
	if err != nil {
		// The failed lookup still consumed hops.
		n.net.traffic.RecordHopsOnly("chord-maintain", hops)
		return
	}
	n.net.traffic.Record("chord-maintain", hops)
	n.mu.Lock()
	v := n.view.Load()
	table := v.table()
	table[j-1] = dst
	n.view.Store(v.withFingers(fingerRuns(n, &table)))
	n.mu.Unlock()
}

// FixNextFingers refreshes the node's next k finger-table entries
// round-robin, the amortized fix_fingers schedule real Chord deployments
// use instead of refreshing all 160 entries at once.
func (n *Node) FixNextFingers(k int) {
	if !n.Alive() {
		return
	}
	for i := 0; i < k; i++ {
		n.mu.Lock()
		j := n.nextFinger + 1 // FixFinger is 1-based
		n.nextFinger = (n.nextFinger + 1) % id.Bits
		n.mu.Unlock()
		n.FixFinger(j)
	}
}

// StabilizeOnce runs one cheap maintenance round over every alive node:
// check-predecessor, stabilize, and fingersPerNode round-robin finger
// refreshes per node. Chaos runs interleave this with workload events to
// model the periodic background protocol without the cost of a full
// StabilizeAll.
func (net *Network) StabilizeOnce(fingersPerNode int) {
	if fingersPerNode < 1 {
		fingersPerNode = 1
	}
	for _, n := range net.Nodes() {
		n.CheckPredecessor()
		n.Stabilize()
	}
	for _, n := range net.Nodes() {
		n.FixNextFingers(fingersPerNode)
	}
}

// StabilizeAll runs the full maintenance protocol for the given number of
// rounds over every alive node: check-predecessor, stabilize, then refresh
// all finger entries. Pointers converge to the exact ring within a few
// rounds on a quiescent network.
func (net *Network) StabilizeAll(rounds int) {
	for r := 0; r < rounds; r++ {
		for _, n := range net.Nodes() {
			n.CheckPredecessor()
			n.Stabilize()
		}
		for _, n := range net.Nodes() {
			for j := 1; j <= id.Bits; j++ {
				n.FixFinger(j)
			}
		}
	}
}
