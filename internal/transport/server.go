package transport

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cqjoin/internal/chord"
	"cqjoin/internal/lockdep"
	"cqjoin/internal/wire"
)

// acceptLoop serves peer connections until the listener closes.
func (t *TCP) acceptLoop(ln net.Listener) {
	defer t.wg.Done()
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			_ = c.Close()
			return
		}
		cs := &connServer{t: t, c: c, frames: make(chan inboundFrame)}
		t.serverConns[c] = cs
		t.mu.Unlock()
		t.wg.Add(1)
		go cs.serve()
	}
}

// serveState is the scratch for processing one inbound frame: the frame
// read buffer, the reply buffer (header reserved by beginFrame each
// frame), the ack status array, wire readers for the frame and for
// message bodies, and an intern table for destination keys. A connection
// keeps the states it made for its frames, so steady-state traffic
// allocates only what the codec's Decode must. readBuf, reply, statuses and
// keys are capacity caches deliberately retained across frames, readBuf up
// to bufKeepCap; the wire readers are Reset before each reuse.
type serveState struct {
	readBuf  []byte
	reply    wire.Buffer
	statuses []byte
	rd       wire.Reader // frame fields
	msgRd    wire.Reader // message bodies (zero-copy views of readBuf)
	keys     map[string]string
}

// serve answers frames from one peer connection: hello with helloOK,
// batches with acks, join/view with view/viewAck. Messages are decoded
// and handed to the local deliverer before the ack goes out, preserving
// the synchronous-ack contract end to end.
//
// Pipelined frames are processed concurrently, as many as the peer sends,
// and each handler writes its own reply the moment it finishes, in
// completion order, not arrival order. Both halves matter: a handler
// blocking on a nested RPC — proc A's batch handler delivering into an
// engine that synchronously calls back to proc B, whose handler does the
// same toward A — must neither stop later frames on this connection from
// being read nor hold their finished replies hostage. In-order replies
// deadlock such mutual traffic: the nested call's ack would queue behind the
// very reply that is waiting on it. Senders demultiplex replies by the
// echoed seq, so no ordering is owed.
//
// Each frame goes to a worker of the connection that is idle, waiting on an
// unbuffered channel; only when none is does the loop start another, so a
// frame costs a goroutine — and the closure its go statement allocates —
// only where every worker it has is busy, a blocked one included. A worker
// serves frames until the read loop ends and closes the channel.
func (cs *connServer) serve() {
	t := cs.t
	defer t.wg.Done()
	defer func() {
		close(cs.frames)
		cs.workers.Wait()
		t.mu.Lock()
		delete(t.serverConns, cs.c)
		t.mu.Unlock()
		_ = cs.c.Close()
	}()

	br := bufio.NewReader(cs.c)
	for {
		f, err := cs.next(br)
		if err != nil {
			if !errors.Is(err, io.EOF) && !cs.dead.Load() && !t.isClosed() {
				t.cfg.Logf("transport: read from %s: %v", cs.c.RemoteAddr(), err)
			}
			return
		}
		t.obs.framesIn.Inc()
		t.obs.frameBytesIn.Add(int64(len(f.payload)))
		select {
		case cs.frames <- f:
		default:
			cs.workers.Add(1)
			go cs.work(f)
		}
	}
}

// next waits for the next frame to begin, then reads it into a state: a free
// one, else a new one. So a connection makes as many states as it ever has
// frames in flight, and no frame waits unread for one: with one connection
// carrying every call from its peer, a cap here would bound nested RPCs.
func (cs *connServer) next(br *bufio.Reader) (inboundFrame, error) {
	if _, err := br.Peek(1); err != nil {
		return inboundFrame{}, err
	}
	var st *serveState
	cs.freeMu.Lock()
	if n := len(cs.free); n > 0 {
		st, cs.free = cs.free[n-1], cs.free[:n-1]
	}
	cs.freeMu.Unlock()
	if st == nil {
		st = new(serveState)
	}
	payload, err := readFrameReuse(br, &st.readBuf)
	return inboundFrame{st: st, payload: payload}, err
}

// inboundFrame is one frame read off a connection, with the scratch that
// holds it.
type inboundFrame struct {
	st      *serveState
	payload []byte
}

// connServer is the shared state of one server-side connection's
// concurrent frame handlers: the write lock replies serialize on, the
// dead flag the first fatal error sets (so later handlers fail quietly),
// the states no frame holds, and the channel idle workers take frames
// from, with the WaitGroup draining them.
type connServer struct {
	t       *TCP
	c       net.Conn
	wmu     lockdep.Mutex[connServerWmu]
	dead    atomic.Bool
	freeMu  lockdep.Mutex[connServerFreeMu]
	free    []*serveState
	frames  chan inboundFrame
	workers sync.WaitGroup
}

type connServerWmu struct{}    // connServer.wmu's lock class
type connServerFreeMu struct{} // connServer.freeMu's lock class

// work serves f, then every frame handed to it while it waits idle, until
// the connection's read loop closes the channel.
func (cs *connServer) work(f inboundFrame) {
	defer cs.workers.Done()
	for ok := true; ok; f, ok = <-cs.frames {
		cs.serveFrame(f.st, f.payload)
	}
}

// serveFrame handles one inbound frame and writes its reply (if any)
// under the connection's write lock. The first fatal condition — bad
// frame, oversized reply, failed write — marks the connection dead and
// closes it.
func (cs *connServer) serveFrame(st *serveState, payload []byte) {
	defer func() {
		if cap(st.readBuf) > bufKeepCap { // dropped with the readers' views of it
			st.readBuf = nil
			st.rd.Reset(nil)
			st.msgRd.Reset(nil)
		}
		cs.freeMu.Lock()
		cs.free = append(cs.free, st)
		cs.freeMu.Unlock()
	}()
	t := cs.t
	beginFrame(&st.reply)
	hasReply, err := t.handleFrameInto(st, payload)
	if err != nil {
		if cs.dead.CompareAndSwap(false, true) {
			t.cfg.Logf("transport: bad frame from %s: %v", cs.c.RemoteAddr(), err)
		}
		_ = cs.c.Close()
		return
	}
	if !hasReply {
		return
	}
	frame, err := finishFrame(&st.reply)
	if err != nil {
		if cs.dead.CompareAndSwap(false, true) {
			t.cfg.Logf("transport: reply to %s: %v", cs.c.RemoteAddr(), err)
		}
		_ = cs.c.Close()
		return
	}
	cs.wmu.Lock()
	_ = cs.c.SetWriteDeadline(time.Now().Add(DefaultIOTimeout))
	_, werr := cs.c.Write(frame)
	_ = cs.c.SetWriteDeadline(time.Time{})
	cs.wmu.Unlock()
	if werr != nil {
		if cs.dead.CompareAndSwap(false, true) && !t.isClosed() {
			t.cfg.Logf("transport: write to %s: %v", cs.c.RemoteAddr(), werr)
		}
		_ = cs.c.Close()
		return
	}
	t.obs.framesOut.Inc()
	t.obs.frameBytesOut.Add(int64(len(frame) - frameHeaderLen))
}

// handleFrameInto processes one inbound frame, building any reply in
// st.reply (after its reserved header), and reports whether there is one.
// An error tears the connection down.
func (t *TCP) handleFrameInto(st *serveState, payload []byte) (bool, error) {
	r := &st.rd
	r.Reset(payload)
	ftype, err := r.Uvarint()
	if err != nil {
		return false, err
	}
	switch ftype {
	case frameHello:
		if _, err := r.Uvarint(); err != nil { // version; any is answered with ours
			return false, err
		}
		helloOKInto(&st.reply, t.cfg.Codec.CatalogDigest())
		return true, nil
	case frameBatch:
		return true, t.handleBatchInto(st, r)
	case frameJoin:
		seq, err := r.Uvarint()
		if err != nil {
			return false, err
		}
		addr, err := r.String()
		if err != nil {
			return false, err
		}
		if t.cfg.Membership == nil {
			return false, errors.New("transport: membership frames not enabled")
		}
		v, err := t.cfg.Membership.HandleJoin(addr)
		if err != nil {
			return false, err
		}
		viewInto(&st.reply, seq, v)
		return true, nil
	case frameView:
		seq, err := r.Uvarint()
		if err != nil {
			return false, err
		}
		v, err := wire.DecodeMemberView(r)
		if err != nil {
			return false, err
		}
		if t.cfg.Membership == nil {
			return false, errors.New("transport: membership frames not enabled")
		}
		viewAckInto(&st.reply, seq, t.cfg.Membership.HandleView(v))
		return true, nil
	default:
		return false, errors.New("transport: unknown frame type")
	}
}

// handleBatchInto decodes and delivers each message of a batch frame in
// order, appending the ack to st.reply. A message that fails to decode
// gets ackFail without killing the rest of the batch — nor do the entries
// behind it that say "the tuple of the one before me", which fail with it
// rather than take an earlier entry's: the sender's retry will re-offer
// them, and the engine's dedup makes the repeats harmless.
// Message bodies are decoded from zero-copy views of the read buffer, and
// destination keys interned so steady-state traffic allocates no strings.
func (t *TCP) handleBatchInto(st *serveState, r *wire.Reader) error {
	seq, err := r.Uvarint()
	if err != nil {
		return err
	}
	count, err := r.Uvarint()
	if err != nil {
		return err
	}
	if count > uint64(r.Remaining()) {
		// Every entry occupies at least one byte; a larger count is a
		// forged prefix, not a short read.
		return errors.New("transport: implausible batch count")
	}
	if uint64(cap(st.statuses)) < count {
		st.statuses = make([]byte, count)
	}
	statuses := st.statuses[:count]
	var prev chord.Message // the entry before this one; nil where that one did not decode
	for i := range statuses {
		keyBytes, err := r.Bytes()
		if err != nil {
			return err
		}
		dstKey, ok := st.keys[string(keyBytes)] // no alloc on hit
		if !ok {
			dstKey = string(keyBytes)
			if st.keys == nil {
				st.keys = make(map[string]string)
			}
			st.keys[dstKey] = dstKey
		}
		body, err := r.Bytes()
		if err != nil {
			return err
		}
		st.msgRd.Reset(body)
		msg, err := t.cfg.Codec.DecodeAfter(&st.msgRd, prev)
		if err != nil {
			prev = nil
			t.obs.decodeErrors.Inc()
			t.cfg.Logf("transport: decode message for %s: %v", dstKey, err)
			statuses[i] = ackFail
			continue
		}
		prev = msg
		if t.cfg.Local.DeliverLocal(dstKey, msg) {
			statuses[i] = ackOK
			if r, ok := msg.(chord.Replier); ok {
				statuses[i] |= r.Reply() << 1
			}
		} else {
			statuses[i] = ackFail
		}
	}
	ackInto(&st.reply, seq, statuses)
	return nil
}
