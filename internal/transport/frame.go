package transport

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"

	"cqjoin/internal/wire"
)

// The wire protocol between peers is a sequence of frames, each a 4-byte
// big-endian length followed by a payload encoded with internal/wire
// primitives:
//
//	frame   := len:uint32be payload                (len counts payload only)
//	payload := ftype:uvarint rest
//	hello   := HELLO version:uvarint self:string digest:uint64be  (first frame each way)
//	helloOK := HELLO_OK version:uvarint digest:uint64be          (digest: Codec.CatalogDigest)
//	batch   := BATCH seq:uvarint count:uvarint
//	           { dstKey:string msg:string } * count (msg = engine codec bytes)
//	ack     := ACK seq:uvarint status:string       (one status byte per msg)
//	status  := reply:bits 7..1 ok:bit 0            (reply: a chord.Replier's answer, 0 unless ok)
//	join    := JOIN seq:uvarint addr:string        (request to enter the overlay)
//	view    := VIEW seq:uvarint memberView         (membership gossip; see wire.MemberView)
//	viewAck := VIEW_ACK seq:uvarint version:uvarint (receiver's view version after apply)
//
// A connection is a pipelined RPC channel, the one its dialer keeps to that
// peer: any number of requests may be outstanding on it at a time.
// Every request after the hello handshake carries a connection-scoped
// seq, and every reply echoes it: seq IS the demultiplexer. The server
// processes pipelined frames concurrently and writes each reply as its
// handler finishes — completion order, not arrival order. Both are
// forced by nested RPCs: two peers whose handlers synchronously call
// back into each other would deadlock if a blocked frame stopped later
// frames from being read, and equally if its unfinished reply held
// finished ones hostage in an in-order writer (the nested call's ack
// would queue behind the very reply awaiting it). Acks carry one byte
// per message; its ackOK bit means the destination's handler ran before
// the ack was sent — the same synchronous-ack contract the simulated
// transport provides — and the bits above it carry what the handler left
// in a chord.Replier, as the simulated transport leaves it in the message.
//
// Membership frames follow the same request/reply discipline: JOIN is
// answered with a VIEW (the authoritative post-join membership), VIEW with
// a VIEW_ACK. Both are idempotent — views are versioned and a receiver
// only adopts strictly newer ones — so the sender's retry loop can replay
// them safely.
const (
	// protoVersion is exchanged at hello; a dialer refuses any other, and then
	// any catalog digest but its own. 9: a query says its text as the token
	// form its receiver spells back against a catalog of the same digest
	// (DESIGN.md §8.1) — a version-8 peer would parse the marker as SQL. 10: a
	// notification batch says its keys past its subscriber, which a version-9
	// peer would read as a key in full. 11: a chain travels as a query and its
	// stages as joins, where a version-10 peer sends and expects tags 14 and 15.
	// 12: a promotion copies the rewrite set from the base itself, where a
	// version-11 peer sends and expects tags 19 and 21. 13: a promotion is its
	// base's own state, and the hot-key frames say only their shard, where a
	// version-12 peer sends and expects tags 17 and 18. 14: a value-level
	// hand-off section says its bucket's identifier behind an empty input,
	// which a version-13 peer would take for an input.
	protoVersion = 14

	// maxFrame bounds one frame so a corrupt length prefix cannot allocate
	// gigabytes. 16 MiB fits any realistic multisend leg (the simulator's
	// message sizes are hundreds of bytes); DeliverBatch splits larger runs
	// across multiple frames.
	maxFrame = 16 << 20

	frameHello   = 1
	frameHelloOK = 2
	frameBatch   = 3
	frameAck     = 4
	frameJoin    = 5
	frameView    = 6
	frameViewAck = 7

	ackOK   byte = 1
	ackFail byte = 0

	// frameHeaderLen is the length prefix reserved at the front of a
	// framed buffer and patched by finishFrame.
	frameHeaderLen = 4

	// maxBatchBody is where DeliverBatch cuts a run of entries into a new
	// frame. A chunk may exceed it by one entry, so it sits far enough
	// under maxFrame that any realistic message (the engine's are at most
	// a few KiB) still fits.
	maxBatchBody = 4 << 20

	// bufKeepCap is the largest capacity a connection's frame buffer or a
	// server state's read buffer keeps past the frame it held: one large
	// frame, a hand-off's say, does not pin its size on the connection for
	// the connection's life. Replies (acks and views) never grow that large.
	bufKeepCap = 64 << 10
)

// trimFrameBuf drops w's array once a frame has grown it past bufKeepCap.
func trimFrameBuf(w *wire.Buffer) {
	if cap(w.Bytes()) > bufKeepCap {
		*w = wire.Buffer{}
	}
}

// beginFrame resets w and reserves the 4-byte frame header; build the
// payload after it and call finishFrame.
func beginFrame(w *wire.Buffer) {
	w.Reset()
	var hdr [frameHeaderLen]byte
	w.PutRaw(hdr[:])
}

// finishFrame patches the reserved header with the payload length and
// returns the complete frame (header + payload), ready for one Write.
func finishFrame(w *wire.Buffer) ([]byte, error) {
	frame := w.Bytes()
	n := len(frame) - frameHeaderLen
	if n > maxFrame {
		return nil, fmt.Errorf("transport: frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	binary.BigEndian.PutUint32(frame[:frameHeaderLen], uint32(n))
	return frame, nil
}

// writeFrame sends one length-prefixed frame in a single Write call.
func writeFrame(c net.Conn, payload []byte) error {
	if len(payload) > maxFrame {
		return fmt.Errorf("transport: frame of %d bytes exceeds limit %d", len(payload), maxFrame)
	}
	var w wire.Buffer
	beginFrame(&w)
	w.PutRaw(payload)
	frame, err := finishFrame(&w)
	if err != nil {
		return err
	}
	_, err = c.Write(frame)
	return err
}

// readFrame reads one length-prefixed frame, rejecting oversized lengths
// before allocating. The payload is freshly allocated; use readFrameReuse
// on high-volume paths.
func readFrame(br *bufio.Reader) ([]byte, error) {
	var buf []byte
	return readFrameReuse(br, &buf)
}

// readFrameReuse reads one frame into *buf, growing it only when the payload
// exceeds the capacity an earlier read into the same buffer left. The
// returned slice aliases *buf and is valid until the next call. The header is
// read in place in br's buffer: a connection cut inside it is
// io.ErrUnexpectedEOF, as io.ReadFull says.
func readFrameReuse(br *bufio.Reader, buf *[]byte) ([]byte, error) {
	hdr, err := br.Peek(frameHeaderLen)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	_, _ = br.Discard(frameHeaderLen)
	if n > maxFrame {
		return nil, fmt.Errorf("transport: incoming frame of %d bytes exceeds limit %d", n, maxFrame)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// encodeHello builds the client's opening frame payload.
func encodeHello(self string, digest uint64) []byte {
	var w wire.Buffer
	w.PutUvarint(frameHello)
	w.PutUvarint(protoVersion)
	w.PutString(self)
	w.PutUint64(digest)
	return w.Bytes()
}

// helloOKInto appends the server's hello acknowledgement payload.
func helloOKInto(w *wire.Buffer, digest uint64) {
	w.PutUvarint(frameHelloOK)
	w.PutUvarint(protoVersion)
	w.PutUint64(digest)
}

// batchHeaderInto appends the batch payload prefix (ftype, seq, count);
// the pre-encoded entries follow it verbatim.
func batchHeaderInto(w *wire.Buffer, seq uint64, count int) {
	w.PutUvarint(frameBatch)
	w.PutUvarint(seq)
	w.PutUvarint(uint64(count))
}

// ackInto appends the ack payload for a batch: the echoed seq plus one
// status byte per message, in batch order.
func ackInto(w *wire.Buffer, seq uint64, statuses []byte) {
	w.PutUvarint(frameAck)
	w.PutUvarint(seq)
	w.PutBytes(statuses)
}

// joinInto appends a join request carrying the joiner's advertised
// overlay address.
func joinInto(w *wire.Buffer, seq uint64, addr string) {
	w.PutUvarint(frameJoin)
	w.PutUvarint(seq)
	w.PutString(addr)
}

// viewInto appends a membership gossip payload. As a request seq is the
// sender's; as the reply to a join it echoes the join's seq.
func viewInto(w *wire.Buffer, seq uint64, v *wire.MemberView) {
	w.PutUvarint(frameView)
	w.PutUvarint(seq)
	wire.EncodeMemberView(w, v)
}

// viewAckInto appends the reply to a view frame: the echoed seq plus the
// receiver's view version after applying (or ignoring) the gossip.
func viewAckInto(w *wire.Buffer, seq, version uint64) {
	w.PutUvarint(frameViewAck)
	w.PutUvarint(seq)
	w.PutUvarint(version)
}

// replySeq extracts the demux seq from a reply frame without consuming
// the payload: every reply type a client read loop can see (ack, view,
// viewAck) carries it directly after the frame type.
func replySeq(payload []byte) (uint64, error) {
	r := wire.NewReader(payload)
	ftype, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	switch ftype {
	case frameAck, frameView, frameViewAck:
		return r.Uvarint()
	default:
		return 0, fmt.Errorf("transport: reply frame type %d carries no seq", ftype)
	}
}

// readReplyHeader consumes a reply's frame type and echoed seq, failing a
// reply of another type than want or to another request than seq.
func readReplyHeader(r *wire.Reader, want, seq uint64) error {
	ftype, err := r.Uvarint()
	if err != nil {
		return err
	}
	if ftype != want {
		return fmt.Errorf("transport: unexpected reply frame type %d, want %d", ftype, want)
	}
	got, err := r.Uvarint()
	if err != nil {
		return err
	}
	if got != seq {
		return fmt.Errorf("transport: reply for seq %d, want %d", got, seq)
	}
	return nil
}

// decodeAck parses the statuses of an ack frame past its header and
// validates their count against the batch it answers. The returned statuses
// alias the reader's backing bytes.
func decodeAck(r *wire.Reader, wantCount int) ([]byte, error) {
	statuses, err := r.Bytes()
	if err != nil {
		return nil, err
	}
	if len(statuses) != wantCount {
		return nil, fmt.Errorf("transport: ack carries %d statuses, want %d", len(statuses), wantCount)
	}
	return statuses, nil
}
