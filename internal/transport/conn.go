package transport

import (
	"bufio"
	"net"
	"time"

	"cqjoin/internal/lockdep"
	"cqjoin/internal/wire"
)

// slot is one of a connection's in-flight requests: the writer claims a free
// slot under the request's seq and the connection's read loop completes it
// with the reply frame echoing that seq. Replies demultiplex purely by seq —
// the server answers pipelined frames in completion order, not arrival order
// (nested RPCs between mutually calling peers forbid in-order replies) — so
// FIFO position means nothing.
//
// A slot lives as long as its connection: done is a one-slot channel
// completed by a single send (never closed), each claim is completed exactly
// once (take and failAll clear seq under errMu first), and the claimer drains
// the token and reads the reply before release frees the slot.
type slot struct {
	seq     uint64 // the request awaiting its reply, 0 while none is; guarded by errMu
	payload []byte // the reply frame; aliases buf
	buf     []byte // the reply's read buffer, swapped in by the read loop
	err     error
	done    chan struct{}
	timer   *time.Timer // the reply's deadline; stopped and drained between claims
}

// clientConn is the one established, hello-verified connection to a peer,
// shared by every concurrent RPC to it (pipelined frames instead of
// exclusive checkout per RPC). Writers serialize on wmu; a dedicated read
// loop (TCP.readLoop) completes calls by the seq their replies echo.
type clientConn struct {
	c  net.Conn
	br *bufio.Reader

	// wmu serializes seq assignment, building a request in w, claiming its
	// slot and writing it; the request frame carrying a seq is on the wire
	// before any later seq can be assigned.
	wmu lockdep.Mutex[clientConnWmu]
	seq uint64
	w   wire.Buffer

	// errMu guards werr, slots, free and each slot's seq. poison stores the
	// first fatal error and closes the socket, which unblocks the read loop to
	// fail every slot still awaiting its reply. claim runs under errMu, so no
	// request can slip in after that final drain.
	errMu lockdep.Mutex[clientConnErrMu]
	werr  error
	slots []*slot // every slot made: as many as requests were ever in flight at once
	free  []*slot
}

type clientConnWmu struct{}   // clientConn.wmu's lock class
type clientConnErrMu struct{} // clientConn.errMu's lock class

// newClientConn wraps a freshly dialed connection. The caller performs the
// hello exchange before any RPC uses it.
func newClientConn(c net.Conn) *clientConn {
	return &clientConn{c: c, br: bufio.NewReader(c)}
}

// poison marks the connection fatally broken and closes the socket,
// which unblocks the read loop so every pending call fails fast.
// Idempotent; the first error wins.
func (cc *clientConn) poison(err error) {
	cc.errMu.Lock()
	if cc.werr == nil {
		cc.werr = err
	}
	cc.errMu.Unlock()
	_ = cc.c.Close()
}

// broken returns the poison error, or nil while the connection is usable.
func (cc *clientConn) broken() error {
	cc.errMu.Lock()
	defer cc.errMu.Unlock()
	return cc.werr
}

// claim takes a free slot for the request seq, making one when none is free,
// and fails instead on a poisoned connection so the read loop's final drain
// cannot miss it. No cap: one connection carries every call to its peer, so a
// bound here would be a deadlock bound for nested RPCs.
func (cc *clientConn) claim(seq uint64) (*slot, error) {
	cc.errMu.Lock()
	defer cc.errMu.Unlock()
	if cc.werr != nil {
		return nil, cc.werr
	}
	var s *slot
	if n := len(cc.free); n > 0 {
		s, cc.free = cc.free[n-1], cc.free[:n-1]
	} else {
		s = &slot{done: make(chan struct{}, 1)}
		cc.slots = append(cc.slots, s)
	}
	s.seq = seq
	return s, nil
}

// release frees a slot whose claimer is done with its reply. The slot keeps
// its buffer's capacity for the next reply, and nothing else of this one.
func (cc *clientConn) release(s *slot) {
	s.payload, s.err = nil, nil
	cc.errMu.Lock()
	cc.free = append(cc.free, s)
	cc.errMu.Unlock()
}

// take returns the slot awaiting seq, which it now awaits no more, or nil
// when no such request is in flight (a protocol violation the read loop
// treats as fatal).
func (cc *clientConn) take(seq uint64) *slot {
	cc.errMu.Lock()
	defer cc.errMu.Unlock()
	for _, s := range cc.slots {
		if s.seq == seq && seq != 0 {
			s.seq = 0
			return s
		}
	}
	return nil
}

// failAll fails every slot still awaiting its reply with the poison error.
// The caller must poison first; claim checks the poison error under the
// same lock this drain holds, so nothing can be claimed afterwards.
func (cc *clientConn) failAll() {
	cc.errMu.Lock()
	defer cc.errMu.Unlock()
	for _, s := range cc.slots {
		if s.seq != 0 {
			s.seq, s.err = 0, cc.werr
			s.done <- struct{}{} // never blocks: each claim is completed once
		}
	}
}

// peer is what a transport keeps for one peer address: its connection, and
// the lock that lets one dial to it run at a time.
type peer struct {
	// dial is held across a dial and its hello. It is never taken under
	// TCP.mu: conn takes TCP.mu under it, and the lock gate fails a test
	// that takes the two in the other order.
	dial   lockdep.Mutex[peerDial]
	conn   *clientConn // guarded by TCP.mu; nil, or poisoned, while a dial is due
	dialed bool        // guarded by dial: a later dial is a reconnect
}

type peerDial struct{} // peer.dial's lock class
