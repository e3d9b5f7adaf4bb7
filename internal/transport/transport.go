// Package transport moves chord messages between processes over TCP,
// turning the single-process simulated overlay into a multi-process one.
// It implements chord.Transport: the routing, accounting and reliability
// layers above are untouched, and the engine's wire codecs
// (internal/engine/codec.go) finally cross a real socket.
//
// Deployment model: every process builds the identical overlay (same
// seed, same node keys, same ring) and a static peer list assigns each
// ring position an owning process. Routing decisions walk the locally
// replicated ring metadata for free; only final deliveries to nodes owned
// by another process cross the wire, as one framed, acked RPC over the one
// connection this process keeps to that one. Handlers run on the owning
// process, so each node's authoritative state lives exactly once.
//
// Reliability: an RPC that fails (dial, write, read, decode) is retried
// with seeded-jitter exponential backoff; after the attempt budget the
// delivery reports false — the same missing ack the simulator produces
// for a dropped packet — and the engine's retry/dedup layer (PR 1) takes
// over. At-least-once resends are safe because every engine receiver is
// idempotent.
//
// Real sockets need wall-clock deadlines and jittered backoff. The
// simulated transport remains the bit-exact default; the differential test
// in the repo root proves the two produce identical notification
// fingerprints for the same workload.
package transport

import (
	"errors"
	"fmt"
	"log"
	"math/rand"
	"net"
	"sync"
	"time"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/lockdep"
	"cqjoin/internal/obs"
	"cqjoin/internal/wire"
)

// Codec sizes, encodes and decodes chord messages as they stand in a batch
// frame: behind prev, the entry before them in the frame (nil for the first),
// whose content — a publication's tuple, a retracted query's key — they need
// not repeat. A decoder handed a nil prev, because its entry leads the frame
// or the one before it did not decode, fails a message that leans on one.
// SizeAfter is the exact length EncodeAfter will append, so DeliverBatch
// encodes each message straight into the frame behind its length prefix.
// engine.NewWireCodec is the production implementation; the indirection keeps
// this package free of an engine dependency.
//
// CatalogDigest names what the codec decodes against (relation.Catalog.
// Digest): a peer whose codec says another is refused at hello, as one of
// another protocol is, for it would decode this one's queries against other
// ordinals.
type Codec interface {
	SizeAfter(msg, prev chord.Message) int
	EncodeAfter(w *wire.Buffer, msg, prev chord.Message) error
	DecodeAfter(r *wire.Reader, prev chord.Message) (chord.Message, error)
	CatalogDigest() uint64
}

// LocalDeliverer hands a decoded message to a node hosted on this
// process. *chord.Network satisfies it.
type LocalDeliverer interface {
	DeliverLocal(dstKey string, msg chord.Message) bool
}

// MembershipHandler reacts to membership control frames (join/view). The
// daemon layer implements it; a transport configured without one rejects
// membership frames, so static-peer-list deployments are unaffected.
type MembershipHandler interface {
	// HandleJoin admits a new process into the overlay and returns the
	// authoritative post-join view (which includes the joiner).
	HandleJoin(addr string) (*wire.MemberView, error)
	// HandleView applies gossiped membership iff it is newer than the
	// local view, and returns the local view version afterwards.
	HandleView(v *wire.MemberView) uint64
}

// DefaultIOTimeout bounds one RPC's write and reply read, and the hello
// exchange on a fresh connection.
const DefaultIOTimeout = 5 * time.Second

// Config parameterizes a TCP transport. daemon.New builds the production one.
type Config struct {
	// Self is this process's advertised overlay address; deliveries whose
	// owner resolves to Self stay in-process. Set by daemon.New (the
	// -overlay address) and tests.
	Self string
	// OwnerOf maps a node's ring position (chord.Node.ID) to the advertised
	// address of the process hosting it. An empty result means locally
	// hosted. Set by daemon.New (its membership view) and tests.
	OwnerOf func(dst id.ID) string
	// Codec encodes outgoing and decodes incoming messages. Set by daemon.New
	// (engine.NewWireCodec) and tests.
	Codec Codec
	// Local receives messages addressed to nodes this process hosts. Set by
	// daemon.New and tests.
	Local LocalDeliverer
	// Membership serves join/view control frames. Nil (the default)
	// rejects them: the overlay then runs with a fixed peer list. Set by
	// daemon.New and tests.
	Membership MembershipHandler

	// DialTimeout bounds connection establishment (default 2s). Set by
	// tests; the daemon runs the default.
	DialTimeout time.Duration

	// Attempts is the RPC attempt budget including the first try (default
	// 4). BackoffBase doubles per retry up to BackoffMax (defaults 25ms
	// and 1s), with jitter drawn from a rand seeded by Seed so failure
	// schedules are reproducible in tests. Attempts, BackoffBase and
	// BackoffMax are set by tests, the daemon runs the defaults; Seed is set
	// by daemon.New (its -seed) and tests.
	Attempts    int
	BackoffBase time.Duration
	BackoffMax  time.Duration
	Seed        int64

	// Obs receives transport metrics ("transport.*"). Nil disables them.
	// Set by daemon.New (its registry) and tests.
	Obs *obs.Registry
	// Logf reports delivery-affecting errors (default log.Printf). Set by
	// tests; the daemon runs the default.
	Logf func(format string, args ...interface{})
}

// tObs holds the transport's pre-created metric handles; all nil (no-op)
// when observability is off.
type tObs struct {
	dials         *obs.Counter
	reconnects    *obs.Counter
	retries       *obs.Counter
	rpcFailures   *obs.Counter
	framesOut     *obs.Counter
	framesIn      *obs.Counter
	frameBytesOut *obs.Counter
	frameBytesIn  *obs.Counter
	decodeErrors  *obs.Counter
}

func newTObs(reg *obs.Registry) tObs {
	if reg == nil {
		return tObs{}
	}
	return tObs{
		dials:         reg.Counter("transport.dials"),
		reconnects:    reg.Counter("transport.reconnects"),
		retries:       reg.Counter("transport.retries"),
		rpcFailures:   reg.Counter("transport.rpc_failures"),
		framesOut:     reg.Counter("transport.frames_out"),
		framesIn:      reg.Counter("transport.frames_in"),
		frameBytesOut: reg.Counter("transport.frame_bytes_out"),
		frameBytesIn:  reg.Counter("transport.frame_bytes_in"),
		decodeErrors:  reg.Counter("transport.decode_errors"),
	}
}

// TCP is a chord.Transport over real sockets.
type TCP struct {
	cfg Config
	obs tObs

	rngMu lockdep.Mutex[tcpRngMu]
	rng   *rand.Rand

	mu          lockdep.Mutex[tcpMu]
	ln          net.Listener
	peers       map[string]*peer // by address: at most one live client connection each
	serverConns map[net.Conn]*connServer
	closed      bool

	done chan struct{}
	// wg tracks the accept loop, server connections and client read loops.
	// Add happens under mu while !closed, so it cannot race Close's Wait.
	wg sync.WaitGroup
}

type tcpRngMu struct{} // TCP.rngMu's lock class
type tcpMu struct{}    // TCP.mu's lock class

// New validates cfg, fills defaults and builds a transport. Call Start to
// begin accepting peer connections, and Close to tear everything down.
func New(cfg Config) (*TCP, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("transport: Config.Self is required")
	}
	if cfg.OwnerOf == nil {
		return nil, fmt.Errorf("transport: Config.OwnerOf is required")
	}
	if cfg.Codec == nil {
		return nil, fmt.Errorf("transport: Config.Codec is required")
	}
	if cfg.Local == nil {
		return nil, fmt.Errorf("transport: Config.Local is required")
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.Attempts <= 0 {
		cfg.Attempts = 4
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 25 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = time.Second
	}
	if cfg.Logf == nil {
		cfg.Logf = log.Printf
	}
	t := &TCP{
		cfg:         cfg,
		obs:         newTObs(cfg.Obs),
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		peers:       make(map[string]*peer),
		serverConns: make(map[net.Conn]*connServer),
		done:        make(chan struct{}),
	}
	return t, nil
}

// Start begins serving peer connections on ln (which tests bind to port
// 0). It returns immediately.
func (t *TCP) Start(ln net.Listener) {
	t.mu.Lock()
	t.ln = ln
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop(ln)
}

// Close stops the listener and every connection, then waits for the
// server goroutines and read loops to drain.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	ln := t.ln
	conns := make([]net.Conn, 0, len(t.serverConns))
	for c := range t.serverConns {
		conns = append(conns, c)
	}
	var clients []*clientConn
	for _, p := range t.peers {
		if p.conn != nil {
			clients = append(clients, p.conn)
		}
	}
	t.mu.Unlock()
	close(t.done)
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	for _, cc := range clients {
		cc.poison(errClosed)
	}
	t.wg.Wait()
	return nil
}

// Deliver implements chord.Transport. The ack contract matches the
// simulator's: true only when dst's handler ran before returning.
func (t *TCP) Deliver(from, dst *chord.Node, msg chord.Message) bool {
	return t.DeliverBatch(from, dst, []chord.Message{msg})[0]
}

// DeliverBatch implements chord.Transport: one RPC moves the whole run of
// messages bound for dst's owning process. A run whose encoding approaches
// the frame cap is cut, by the codec's sizes, into several frames, each of
// which starts over with an entry in full; each frame's entries are encoded,
// each behind the one before it, straight into its connection's frame buffer.
func (t *TCP) DeliverBatch(from, dst *chord.Node, msgs []chord.Message) []bool {
	lockdep.Sending("transport.TCP.DeliverBatch")
	acks := make([]bool, len(msgs))
	if len(msgs) == 0 {
		return acks
	}
	addr := t.cfg.OwnerOf(dst.ID())
	if addr == "" || addr == t.cfg.Self {
		for i, m := range msgs {
			acks[i] = t.cfg.Local.DeliverLocal(dst.Key(), m)
		}
		return acks
	}
	for start := 0; start < len(msgs); {
		end := t.frameEnd(dst.Key(), msgs, start)
		if err := t.rpcInto(addr, dst.Key(), msgs[start:end], acks[start:end]); errors.Is(err, errUnencodable) {
			// An unencodable message can never be delivered; report the
			// miss without burning the RPC budget. Frames already sent
			// keep their acks.
			return acks
		}
		start = end
	}
	return acks
}

// frameEnd returns where the frame that starts at msgs[start] ends: past the
// entry that takes its body to maxBatchBody, or at the end of the run.
func (t *TCP) frameEnd(dstKey string, msgs []chord.Message, start int) int {
	body := 0
	var prev chord.Message // the entry before m in its frame
	for i, m := range msgs[start:] {
		sz := t.cfg.Codec.SizeAfter(m, prev)
		prev = m
		if body += wire.SizeString(dstKey) + wire.SizeUvarint(uint64(sz)) + sz; body >= maxBatchBody {
			return start + i + 1
		}
	}
	return len(msgs)
}

// appendMsgEntry appends one {dstKey, msg} batch entry, msg as it encodes
// behind prev: in place, behind the exact length prefix the codec's sizing
// gives it — the bytes PutBytes of a separately encoded message would be.
func (t *TCP) appendMsgEntry(w *wire.Buffer, dstKey string, msg, prev chord.Message) error {
	w.PutString(dstKey)
	sz := t.cfg.Codec.SizeAfter(msg, prev)
	w.PutUvarint(uint64(sz))
	before := w.Len()
	if err := t.cfg.Codec.EncodeAfter(w, msg, prev); err != nil {
		return err
	}
	if got := w.Len() - before; got != sz {
		return fmt.Errorf("transport: codec sized %s at %d bytes but encoded %d", msg.Kind(), sz, got)
	}
	return nil
}

// errUnencodable marks a request that could not be built: no attempt can
// send it, so rpc spends no more of its budget on it.
var errUnencodable = errors.New("transport: cannot encode")

// rpcInto sends msgs to addr as one batch frame and maps its per-message
// statuses onto acks, handing an acked chord.Replier its handler's answer.
// Acks left all-false after the attempt budget are the remote analogue of a
// dropped packet: the caller's reliability layer may retry the whole
// delivery.
func (t *TCP) rpcInto(addr, dstKey string, msgs []chord.Message, acks []bool) error {
	err := t.rpc(addr, frameAck, func(w *wire.Buffer, seq uint64) error {
		batchHeaderInto(w, seq, len(msgs))
		var prev chord.Message // the entry before m in this frame
		for _, m := range msgs {
			if err := t.appendMsgEntry(w, dstKey, m, prev); err != nil {
				return fmt.Errorf("%w %s for %s: %w", errUnencodable, m.Kind(), dstKey, err)
			}
			prev = m
		}
		return nil
	}, func(body []byte) error {
		statuses, err := decodeAck(wire.NewReader(body), len(acks))
		if err != nil {
			return err
		}
		for i, status := range statuses {
			if acks[i] = status&ackOK != 0; acks[i] {
				if r, ok := msgs[i].(chord.Replier); ok {
					r.SetReply(status >> 1)
				}
			}
		}
		return nil
	})
	if err != nil && !errors.Is(err, errClosed) {
		t.cfg.Logf("%v", err)
	}
	return err
}

// errClosed is what an RPC the transport closed under before its first
// attempt fails with, and what Close poisons each client connection with.
var errClosed = errors.New("transport: closed")

// rpc runs one request/reply exchange with addr — a batch or a membership
// frame — retrying with backoff on connection-level failures. build appends
// the request for the seq its connection draws to the connection's frame
// buffer; read takes the body of the reply, of frame type want, past its
// echoed seq, before the reply's slot is freed.
func (t *TCP) rpc(addr string, want uint64, build func(w *wire.Buffer, seq uint64) error, read func(body []byte) error) error {
	lastErr := errClosed
	for attempt := 0; attempt < t.cfg.Attempts; attempt++ {
		if attempt > 0 {
			t.obs.retries.Inc()
			t.backoff(attempt)
		}
		cc, err := t.conn(addr)
		if errors.Is(err, errClosed) {
			break
		}
		if err != nil {
			lastErr = err
			continue
		}
		err = t.roundTrip(cc, want, build, read)
		if err == nil || errors.Is(err, errUnencodable) {
			return err
		}
		lastErr = err
	}
	t.obs.rpcFailures.Inc()
	return fmt.Errorf("transport: rpc to %s failed after %d attempts: %w", addr, t.cfg.Attempts, lastErr)
}

// conn returns the connection to addr, dialing it — with the hello
// exchange — when the peer has none or its connection is poisoned. One dial
// to a peer runs at a time, outside t.mu, so a slow peer stalls no other;
// the RPCs that waited on it take the connection it made.
func (t *TCP) conn(addr string) (*clientConn, error) {
	p, cc, err := t.peer(addr)
	if cc != nil || err != nil {
		return cc, err
	}
	p.dial.Lock()
	defer p.dial.Unlock()
	if _, cc, err := t.peer(addr); cc != nil || err != nil {
		return cc, err
	}
	c, err := net.DialTimeout("tcp", addr, t.cfg.DialTimeout)
	if err != nil {
		return nil, err
	}
	t.obs.dials.Inc()
	if p.dialed {
		t.obs.reconnects.Inc()
	}
	p.dialed = true
	cc = newClientConn(c)
	if err := t.hello(cc); err != nil {
		_ = c.Close()
		return nil, err
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = c.Close()
		return nil, errClosed
	}
	p.conn = cc
	t.wg.Add(1)
	t.mu.Unlock()
	go t.readLoop(p, cc)
	return cc, nil
}

// peer returns addr's entry, made on first use, with its connection while
// that is usable, or errClosed once the transport is closed.
func (t *TCP) peer(addr string) (*peer, *clientConn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, nil, errClosed
	}
	p := t.peers[addr]
	if p == nil {
		p = new(peer)
		t.peers[addr] = p
	}
	if p.conn == nil || p.conn.broken() != nil {
		return p, nil, nil
	}
	return p, p.conn, nil
}

// readLoop completes this connection's in-flight calls: read a reply
// frame, extract the echoed seq, hand the payload to the matching slot.
// Replies arrive in the server's completion order, not request order —
// seq is the demultiplexer. Each reply is read into the loop's spare buffer,
// which it then swaps for the buffer of the slot it completes. On any read
// error or poisoning (which closes the socket, unblocking the read) it fails
// every remaining call, so no caller waits past the connection's death,
// and lets go of the connection, so a peer that is gone keeps no buffers.
func (t *TCP) readLoop(p *peer, cc *clientConn) {
	defer t.wg.Done()
	var spare []byte
	for {
		err := t.readReply(cc, &spare)
		if err != nil {
			cc.poison(err)
			cc.failAll()
			t.mu.Lock()
			if p.conn == cc {
				p.conn = nil
			}
			t.mu.Unlock()
			return
		}
	}
}

// readReply reads one reply frame into *spare and completes the slot
// awaiting it, which takes *spare as its buffer and leaves its old one
// there for the next reply.
func (t *TCP) readReply(cc *clientConn, spare *[]byte) error {
	payload, err := readFrameReuse(cc.br, spare)
	if err != nil {
		return err
	}
	t.obs.framesIn.Inc()
	t.obs.frameBytesIn.Add(int64(len(payload)))
	seq, err := replySeq(payload)
	if err != nil {
		return err
	}
	s := cc.take(seq)
	if s == nil {
		return fmt.Errorf("transport: reply for unknown seq %d", seq)
	}
	s.payload = payload
	s.buf, *spare = *spare, s.buf
	s.done <- struct{}{}
	return nil
}

// hello performs the version and catalog handshake on a fresh connection.
func (t *TCP) hello(cc *clientConn) error {
	deadline := time.Now().Add(DefaultIOTimeout)
	_ = cc.c.SetDeadline(deadline)
	defer func() { _ = cc.c.SetDeadline(time.Time{}) }()
	digest := t.cfg.Codec.CatalogDigest()
	if err := t.writeFrameCounted(cc.c, encodeHello(t.cfg.Self, digest)); err != nil {
		return fmt.Errorf("transport: hello write: %w", err)
	}
	payload, err := readFrame(cc.br)
	if err != nil {
		return fmt.Errorf("transport: hello read: %w", err)
	}
	t.obs.framesIn.Inc()
	t.obs.frameBytesIn.Add(int64(len(payload)))
	r := wire.NewReader(payload)
	ftype, err := r.Uvarint()
	if err != nil {
		return err
	}
	if ftype != frameHelloOK {
		return fmt.Errorf("transport: unexpected hello reply frame type %d", ftype)
	}
	version, err := r.Uvarint()
	if err != nil {
		return err
	}
	if version != protoVersion {
		return fmt.Errorf("transport: peer speaks protocol %d, want %d", version, protoVersion)
	}
	theirs, err := r.Uint64()
	if err != nil {
		return err
	}
	if theirs != digest {
		return fmt.Errorf("transport: peer's catalog digest is %016x, ours %016x", theirs, digest)
	}
	return nil
}

// roundTrip runs one RPC on a (possibly shared) pipelined connection: draw
// the seq and build the frame in the connection's frame buffer, claim a slot
// and write the frame under the write lock, block for the reply echoing that
// seq, then hand the reply's body to read before the slot is freed (a slice,
// not a reader: a pointer handed to a func value escapes). Batches and
// membership frames interleave freely on one connection: every reply
// demultiplexes by its seq.
func (t *TCP) roundTrip(cc *clientConn, want uint64, build func(w *wire.Buffer, seq uint64) error, read func(body []byte) error) error {
	cc.wmu.Lock()
	cc.seq++
	seq := cc.seq
	beginFrame(&cc.w)
	var frame []byte
	err := build(&cc.w, seq)
	if err == nil {
		frame, err = finishFrame(&cc.w)
	}
	if err != nil {
		trimFrameBuf(&cc.w)
		cc.wmu.Unlock()
		return err
	}
	s, err := t.writeAndAwait(cc, seq, frame)
	if err != nil {
		return err
	}
	defer cc.release(s)
	r := wire.NewReader(s.payload)
	if err := readReplyHeader(r, want, seq); err != nil {
		return err
	}
	return read(s.payload[len(s.payload)-r.Remaining():])
}

// errAckTimeout poisons a connection whose reply outlived DefaultIOTimeout.
var errAckTimeout = errors.New("transport: timed out waiting for reply")

// writeAndAwait claims a slot under seq, writes the finished frame — both
// under the connection's write lock, which the caller already holds and
// which this function releases — then blocks for the reply, returning the
// slot that holds it for the caller to release. The slot is claimed before
// the write so the read loop owns its completion from that point on: a
// failed write poisons the connection and the read loop fails the slot,
// never leaving a waiter stuck.
func (t *TCP) writeAndAwait(cc *clientConn, seq uint64, frame []byte) (*slot, error) {
	s, err := cc.claim(seq)
	if err != nil {
		cc.wmu.Unlock()
		return nil, err
	}
	_ = cc.c.SetWriteDeadline(time.Now().Add(DefaultIOTimeout))
	_, werr := cc.c.Write(frame)
	_ = cc.c.SetWriteDeadline(time.Time{})
	trimFrameBuf(&cc.w)
	if werr != nil {
		cc.poison(werr)
		cc.wmu.Unlock()
		<-s.done
		cc.release(s)
		return nil, werr
	}
	t.obs.framesOut.Inc()
	t.obs.frameBytesOut.Add(int64(len(frame) - frameHeaderLen))
	cc.wmu.Unlock()

	if s.timer == nil {
		s.timer = time.NewTimer(DefaultIOTimeout)
	} else {
		s.timer.Reset(DefaultIOTimeout)
	}
	select {
	case <-s.done:
	case <-s.timer.C:
		// Poisoning closes the socket, so the read loop unblocks and
		// completes every pending call (this one included) promptly.
		cc.poison(errAckTimeout)
		<-s.done
	}
	if !s.timer.Stop() {
		select {
		case <-s.timer.C:
		default:
		}
	}
	if err := s.err; err != nil {
		cc.release(s)
		return nil, err
	}
	return s, nil
}

// SendJoin asks the overlay process at addr to admit this process and
// returns the authoritative post-join membership view. It retries like a
// delivery RPC; the join is idempotent on the receiver (re-admitting an
// already-listed address just returns the current view).
func (t *TCP) SendJoin(addr string) (*wire.MemberView, error) {
	lockdep.Sending("transport.TCP.SendJoin")
	var v *wire.MemberView
	err := t.rpc(addr, frameView, func(w *wire.Buffer, seq uint64) error {
		joinInto(w, seq, t.cfg.Self)
		return nil
	}, func(body []byte) (err error) {
		v, err = wire.DecodeMemberView(wire.NewReader(body)) // copies every string out of the reply
		return err
	})
	return v, err
}

// SendView gossips a membership view to the process at addr and returns
// the receiver's view version after it applied (or ignored) the gossip.
func (t *TCP) SendView(addr string, v *wire.MemberView) (uint64, error) {
	lockdep.Sending("transport.TCP.SendView")
	var version uint64
	err := t.rpc(addr, frameViewAck, func(w *wire.Buffer, seq uint64) error {
		viewInto(w, seq, v)
		return nil
	}, func(body []byte) (err error) {
		version, err = wire.NewReader(body).Uvarint()
		return err
	})
	return version, err
}

func (t *TCP) writeFrameCounted(c net.Conn, payload []byte) error {
	if err := writeFrame(c, payload); err != nil {
		return err
	}
	t.obs.framesOut.Inc()
	t.obs.frameBytesOut.Add(int64(len(payload)))
	return nil
}

// backoff sleeps base<<(attempt-1) capped at BackoffMax, plus up to 50%
// seeded jitter so synchronized retries from many senders spread out.
func (t *TCP) backoff(attempt int) {
	d := t.cfg.BackoffBase << uint(attempt-1)
	if d > t.cfg.BackoffMax || d <= 0 {
		d = t.cfg.BackoffMax
	}
	t.rngMu.Lock()
	j := time.Duration(t.rng.Int63n(int64(d)/2 + 1))
	t.rngMu.Unlock()
	select {
	case <-time.After(d + j):
	case <-t.done:
	}
}

func (t *TCP) isClosed() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.closed
}
