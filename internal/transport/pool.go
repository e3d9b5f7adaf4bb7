package transport

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"time"

	"cqjoin/internal/wire"
)

var (
	errPoolClosed     = errors.New("transport: pool closed")
	errConnIdleReaped = errors.New("transport: connection reaped after idle timeout")
)

// slot is one of a connection's MaxInflight in-flight requests: the writer
// claims a free slot under the request's seq and the connection's read loop
// completes it with the reply frame echoing that seq. Replies demultiplex
// purely by seq — the server answers pipelined frames in completion order,
// not arrival order (nested RPCs between mutually calling peers forbid
// in-order replies) — so FIFO position means nothing.
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

// pooledConn is one established, hello-verified connection to a peer,
// shared by up to maxInflight concurrent RPCs (pipelined frames instead
// of exclusive checkout per RPC). Writers serialize on wmu; a dedicated
// read loop (TCP.readLoop) completes calls by the seq their replies
// echo.
//
// inflight and idleSince are pool bookkeeping, guarded by the pool's
// mutex — a pooledConn never changes pools.
type pooledConn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader

	// wmu serializes seq assignment, building a request in w, claiming its
	// slot and writing it; the request frame carrying a seq is on the wire
	// before any later seq can be assigned.
	wmu sync.Mutex
	seq uint64
	w   wire.Buffer

	// errMu guards werr, free and each slot's seq. poison stores the first
	// fatal error and closes the socket, which unblocks the read loop to fail
	// every slot still awaiting its reply. claim runs under errMu, so no
	// request can slip in after that final drain.
	errMu sync.Mutex
	werr  error
	slots []slot
	free  []*slot

	inflight  int
	idleSince time.Time
}

// newPooledConn wraps a freshly dialed connection. The caller performs
// the hello exchange before registering it with the pool.
func newPooledConn(addr string, c net.Conn, maxInflight int) *pooledConn {
	pc := &pooledConn{
		addr:  addr,
		c:     c,
		br:    bufio.NewReader(c),
		slots: make([]slot, maxInflight),
		free:  make([]*slot, maxInflight),
	}
	for i := range pc.slots {
		pc.slots[i].done = make(chan struct{}, 1)
		pc.free[i] = &pc.slots[i]
	}
	return pc
}

// poison marks the connection fatally broken and closes the socket,
// which unblocks the read loop so every pending call fails fast.
// Idempotent; the first error wins.
func (pc *pooledConn) poison(err error) {
	pc.errMu.Lock()
	if pc.werr == nil {
		pc.werr = err
	}
	pc.errMu.Unlock()
	_ = pc.c.Close()
}

// broken returns the poison error, or nil while the connection is usable.
func (pc *pooledConn) broken() error {
	pc.errMu.Lock()
	defer pc.errMu.Unlock()
	return pc.werr
}

// claim takes a free slot for the request seq, failing instead on a
// poisoned connection so the read loop's final drain cannot miss it. The
// pool hands a connection to at most maxInflight holders, each of which
// claims one slot at a time, so a free one is always there.
func (pc *pooledConn) claim(seq uint64) (*slot, error) {
	pc.errMu.Lock()
	defer pc.errMu.Unlock()
	if pc.werr != nil {
		return nil, pc.werr
	}
	s := pc.free[len(pc.free)-1]
	pc.free = pc.free[:len(pc.free)-1]
	s.seq = seq
	return s, nil
}

// release frees a slot whose claimer is done with its reply. The slot keeps
// its buffer's capacity for the next reply, and nothing else of this one.
func (pc *pooledConn) release(s *slot) {
	s.payload, s.err = nil, nil
	pc.errMu.Lock()
	pc.free = append(pc.free, s)
	pc.errMu.Unlock()
}

// take returns the slot awaiting seq, which it now awaits no more, or nil
// when no such request is in flight (a protocol violation the read loop
// treats as fatal).
func (pc *pooledConn) take(seq uint64) *slot {
	pc.errMu.Lock()
	defer pc.errMu.Unlock()
	for i := range pc.slots {
		if s := &pc.slots[i]; s.seq == seq && seq != 0 {
			s.seq = 0
			return s
		}
	}
	return nil
}

// failAll fails every slot still awaiting its reply with the poison error.
// The caller must poison first; claim checks the poison error under the
// same lock this drain holds, so nothing can be claimed afterwards.
func (pc *pooledConn) failAll() {
	pc.errMu.Lock()
	defer pc.errMu.Unlock()
	for i := range pc.slots {
		if s := &pc.slots[i]; s.seq != 0 {
			s.seq, s.err = 0, pc.werr
			s.done <- struct{}{} // never blocks: each claim is completed once
		}
	}
}

// pool tracks every client connection per peer address. get hands out a
// connection with spare pipeline capacity — preferring an idle one (its
// server loop is free to answer immediately), then the least-loaded — and
// returns nil when all are saturated so the caller dials another; the
// number of connections tracks RPC concurrency / MaxInflight.
//
// Idle age is validated both by the background reaper and again at
// checkout: a connection idle past idleTimeout is never handed out (the
// peer may already have dropped its end), it is closed on the spot and
// the caller dials fresh.
type pool struct {
	mu          sync.Mutex
	conns       map[string][]*pooledConn
	maxInflight int
	idleTimeout time.Duration
	// wg tracks read-loop goroutines. Add happens in register under mu,
	// mutually exclusive with closeAll, so it cannot race wait.
	wg sync.WaitGroup
	// everConnected distinguishes a first dial from a re-dial after a
	// connection was torn down, for the reconnect metric.
	everConnected map[string]bool
	closed        bool
}

func newPool(maxInflight int, idleTimeout time.Duration) *pool {
	return &pool{
		conns:         make(map[string][]*pooledConn),
		maxInflight:   maxInflight,
		idleTimeout:   idleTimeout,
		everConnected: make(map[string]bool),
	}
}

// get returns a connection to addr with capacity for one more in-flight
// RPC (already counted), or nil when the caller must dial. Broken and
// stale-idle connections are pruned here — the checkout-time reap-cutoff
// check — so a conn idle past the deadline can never be handed out only
// to fail mid-RPC.
func (p *pool) get(addr string, now time.Time) *pooledConn {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.conns[addr]
	kept := conns[:0]
	var (
		best       *pooledConn
		bestLoad   int
		bestIdleAt time.Time
	)
	for _, pc := range conns {
		if pc.broken() != nil {
			continue // read loop already failed it; drop our reference
		}
		if pc.inflight == 0 && now.Sub(pc.idleSince) >= p.idleTimeout {
			pc.poison(errConnIdleReaped)
			continue
		}
		kept = append(kept, pc)
		if pc.inflight == 0 {
			// Prefer the most recently used idle connection (LIFO), so
			// the oldest go cold and get reaped.
			if best == nil || bestLoad > 0 || pc.idleSince.After(bestIdleAt) {
				best, bestLoad, bestIdleAt = pc, 0, pc.idleSince
			}
		} else if pc.inflight < p.maxInflight && (best == nil || (bestLoad > 0 && pc.inflight < bestLoad)) {
			best, bestLoad = pc, pc.inflight
		}
	}
	p.conns[addr] = kept
	if best != nil {
		best.inflight++
	}
	return best
}

// register adds a freshly dialed, hello-verified connection — already
// counted as one in-flight holder — and reserves its read-loop slot.
// False means the pool is closed and the caller must tear the connection
// down without starting a read loop.
func (p *pool) register(pc *pooledConn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return false
	}
	pc.inflight = 1
	p.conns[pc.addr] = append(p.conns[pc.addr], pc)
	p.wg.Add(1)
	return true
}

// release returns an RPC slot. A broken connection is dropped from the
// pool; a connection going idle is timestamped, and the per-peer idle
// bound enforced by closing the least recently used idle one.
func (p *pool) release(pc *pooledConn, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	pc.inflight--
	if pc.broken() != nil || p.closed {
		p.remove(pc)
		pc.poison(errPoolClosed) // no-op when already poisoned
		return
	}
	if pc.inflight > 0 {
		return
	}
	pc.idleSince = now
	idle := 0
	var lru *pooledConn
	for _, other := range p.conns[pc.addr] {
		if other.inflight == 0 && other.broken() == nil {
			idle++
			if lru == nil || other.idleSince.Before(lru.idleSince) {
				lru = other
			}
		}
	}
	if idle > maxIdlePerPeer && lru != nil {
		lru.poison(errConnIdleReaped)
		p.remove(lru)
	}
}

// remove drops pc from its address list. Callers hold p.mu.
func (p *pool) remove(pc *pooledConn) {
	conns := p.conns[pc.addr]
	for i, other := range conns {
		if other == pc {
			p.conns[pc.addr] = append(conns[:i], conns[i+1:]...)
			return
		}
	}
}

// markConnected records a successful dial to addr and reports whether the
// peer had been connected before (i.e. this dial is a reconnect).
func (p *pool) markConnected(addr string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	seen := p.everConnected[addr]
	p.everConnected[addr] = true
	return seen
}

// reap closes idle connections unused since before cutoff and returns how
// many it dropped.
func (p *pool) reap(cutoff time.Time) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	reaped := 0
	for addr, conns := range p.conns {
		kept := conns[:0]
		for _, pc := range conns {
			if pc.broken() != nil {
				continue
			}
			if pc.inflight == 0 && pc.idleSince.Before(cutoff) {
				pc.poison(errConnIdleReaped)
				reaped++
				continue
			}
			kept = append(kept, pc)
		}
		p.conns[addr] = kept
	}
	return reaped
}

// idleCount returns the total idle (zero in-flight) connections across
// peers.
func (p *pool) idleCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := 0
	for _, conns := range p.conns {
		for _, pc := range conns {
			if pc.inflight == 0 && pc.broken() == nil {
				n++
			}
		}
	}
	return n
}

// closeAll poisons every connection and refuses future registers.
func (p *pool) closeAll() {
	p.mu.Lock()
	p.closed = true
	var all []*pooledConn
	for _, conns := range p.conns {
		all = append(all, conns...)
	}
	p.conns = make(map[string][]*pooledConn)
	p.mu.Unlock()
	for _, pc := range all {
		pc.poison(errPoolClosed)
	}
}

// wait blocks until every read loop has exited; call after closeAll.
func (p *pool) wait() { p.wg.Wait() }
