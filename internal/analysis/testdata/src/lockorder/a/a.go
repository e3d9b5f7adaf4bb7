// Package a exercises lockorder: transitive sends reached through a call
// chain while a mutex is held, direct sends under a lock (plain,
// deferred-unlock and read lock) but not after it or in a closure, a lock
// an early return releases still held past that return, and lock-order
// cycles between two classes. The chord import resolves to the
// fixture fake under this testdata root, whose Node.Send et al carry the
// production funcKeys lockorder's sink set matches on.
package a

import (
	"sync"

	"cqjoin/internal/chord"
)

type state struct {
	mu   sync.Mutex
	ack  sync.Mutex
	rw   sync.RWMutex
	node *chord.Node
}

// sendHelper is the sink end of the transitive chain: it sends directly.
func (s *state) sendHelper() {
	s.node.Send(nil, 0)
}

// hop is the middle of the chain; it holds no lock itself.
func (s *state) hop() {
	s.sendHelper()
}

// transitiveSendUnderLock calls into a chain that reaches chord.Node.Send
// while mu is pinned by the deferred unlock.
func (s *state) transitiveSendUnderLock() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hop() // want "call to hop reaches a blocking send .lockorder/a.state.hop -> lockorder/a.state.sendHelper -> cqjoin/internal/chord.Node.Send. while mutex state.mu is held"
}

// directSendUnderLock sends on the overlay with mu still held.
func (s *state) directSendUnderLock() {
	s.mu.Lock()
	s.node.Send(nil, 0) // want "Send blocks on the overlay/transport while mutex state.mu is held"
	s.mu.Unlock()
}

// sendsUnderReadLock: a read lock pinned by a deferred unlock is held
// all the same, across every overlay send.
func (s *state) sendsUnderReadLock(batch []chord.Deliverable, hint *chord.Node) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.node.Multisend(batch, nil)     // want "Multisend blocks on the overlay/transport while mutex state.rw is held"
	s.node.MultisendIterative(batch) // want "MultisendIterative blocks on the overlay/transport while mutex state.rw is held"
	s.node.DirectSend(nil, hint)     // want "DirectSend blocks on the overlay/transport while mutex state.rw is held"
	s.node.SendHinted(nil, 0, hint)  // want "SendHinted blocks on the overlay/transport while mutex state.rw is held"
}

// collectThenSend is the clean shape: copy under the lock, release it,
// then talk to the network.
func (s *state) collectThenSend(pending []chord.Deliverable) {
	s.mu.Lock()
	batch := append([]chord.Deliverable(nil), pending...)
	s.mu.Unlock()
	s.node.Multisend(batch, nil)
}

// closureIsSeparate: a closure's body runs later, under its own
// discipline; the enclosing function's lock does not cover its send.
func (s *state) closureIsSeparate() func() {
	s.mu.Lock()
	defer s.mu.Unlock()
	return func() { s.node.Send(nil, 0) }
}

// lockAThenB and lockBThenA disagree on acquisition order, closing a
// cycle between the two classes; each inner acquisition is reported.
func (s *state) lockAThenB() {
	s.mu.Lock()
	s.ack.Lock() // want "acquiring state.ack while state.mu is held closes a lock-order cycle"
	s.ack.Unlock()
	s.mu.Unlock()
}

func (s *state) lockBThenA() {
	s.ack.Lock()
	s.mu.Lock() // want "acquiring state.mu while state.ack is held closes a lock-order cycle"
	s.mu.Unlock()
	s.ack.Unlock()
}

// transport and peer take TCP.Close's shape: an early return under `if
// t.closed` unlocks mu, and the path that goes on still holds it, so the
// dial lock close takes there is ordered under mu, the reverse of conn's.
type transport struct {
	mu     sync.Mutex
	closed bool
	peers  []*peer
}

type peer struct{ dial sync.Mutex }

func (t *transport) close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	for _, p := range t.peers {
		p.dial.Lock() // want "acquiring peer.dial while transport.mu is held closes a lock-order cycle"
		p.dial.Unlock()
	}
	t.mu.Unlock()
	return nil
}

func (t *transport) conn(p *peer) {
	p.dial.Lock()
	t.mu.Lock() // want "acquiring transport.mu while peer.dial is held closes a lock-order cycle"
	t.mu.Unlock()
	p.dial.Unlock()
}

// earlyReturnThenSend takes a handler's shape: each early return, from a
// loop's branch or a switch case, unlocks on its way out, and the path that
// goes on reaches a send with mu still held.
func (s *state) earlyReturnThenSend(dup bool, items []int) {
	s.mu.Lock()
	for _, it := range items {
		if it == 0 {
			s.mu.Unlock()
			return
		}
	}
	switch {
	case dup:
		s.mu.Unlock()
		return
	}
	s.hop() // want "call to hop reaches a blocking send .* while mutex state.mu is held"
	s.mu.Unlock()
}

// unlockOnEveryBranch: both branches release mu and neither returns, so the
// send after them is clean.
func (s *state) unlockOnEveryBranch(fast bool) {
	s.mu.Lock()
	if fast {
		s.mu.Unlock()
	} else {
		s.mu.Unlock()
	}
	s.hop()
}
