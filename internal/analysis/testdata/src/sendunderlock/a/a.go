// Package a exercises the sendunderlock analyzer: overlay sends while a
// mutex locked in the same function is held.
package a

import (
	"sync"

	"cqjoin/internal/chord"
)

type state struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	node *chord.Node
}

func sendWhileLocked(st *state, msg chord.Message) {
	st.mu.Lock()
	st.node.Send(msg, 1) // want "Send called while a mutex locked in this function is still held"
	st.mu.Unlock()
}

func sendAfterUnlock(st *state, msg chord.Message) {
	st.mu.Lock()
	st.mu.Unlock()
	st.node.Send(msg, 1) // lock released: fine
}

func sendUnderDeferredUnlock(st *state, batch []chord.Deliverable) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.node.Multisend(batch, nil) // want "Multisend called while a mutex locked in this function is still held"
}

func sendUnderReadLock(st *state, batch []chord.Deliverable) {
	st.rw.RLock()
	st.node.MultisendIterative(batch) // want "MultisendIterative called while a mutex locked in this function is still held"
	st.rw.RUnlock()
}

func directSendWhileLocked(st *state, msg chord.Message, dst *chord.Node) {
	st.mu.Lock()
	st.node.DirectSend(msg, dst) // want "DirectSend called while a mutex locked in this function is still held"
	st.mu.Unlock()
}

func hintedSendWhileLocked(st *state, msg chord.Message, hint *chord.Node) {
	st.mu.Lock()
	st.node.SendHinted(msg, 1, hint) // want "SendHinted called while a mutex locked in this function is still held"
	st.mu.Unlock()
}

// collectThenSend is the sanctioned discipline: mutate under the lock,
// release, then talk to the network. No diagnostics.
func collectThenSend(st *state, pending []chord.Deliverable) {
	st.mu.Lock()
	batch := make([]chord.Deliverable, len(pending))
	copy(batch, pending)
	st.mu.Unlock()
	st.node.Multisend(batch, nil)
}

// closureIsSeparate: a FuncLit body runs under its own discipline — the
// enclosing function's lock state does not leak into it, and its sends
// are not charged to the enclosing function.
func closureIsSeparate(st *state, msg chord.Message) func() {
	st.mu.Lock()
	defer st.mu.Unlock()
	return func() {
		st.node.Send(msg, 1)
	}
}

func suppressed(st *state, msg chord.Message) {
	st.mu.Lock()
	//lint:allow sendunderlock the in-process fixture cannot deadlock
	st.node.Send(msg, 1)
	st.mu.Unlock()
}
