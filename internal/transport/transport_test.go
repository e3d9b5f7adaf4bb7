package transport

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/obs"
	"cqjoin/internal/wire"
)

// testMsg is a minimal chord message for exercising the transport without
// the engine's codecs. It is a chord.Replier; the codec does not carry reply.
type testMsg struct {
	Body  string
	reply byte
}

func (m *testMsg) Kind() string        { return "test" }
func (m *testMsg) Reply() byte         { return m.reply }
func (m *testMsg) SetReply(reply byte) { m.reply = reply }

// testCodec writes a message as 0 and its body or, where the entry before it
// in the frame has the same body, as a lone 1 — the engine's shared tuple in
// miniature, so the tests here exercise the frame-scoped predecessor. Its
// catalog digest is digest.
type testCodec struct{ digest uint64 }

func (c testCodec) CatalogDigest() uint64 { return c.digest }

func repeatsBody(tm *testMsg, prev chord.Message) bool {
	pm, ok := prev.(*testMsg)
	return ok && pm.Body == tm.Body
}

func (testCodec) SizeAfter(msg, prev chord.Message) int {
	tm, ok := msg.(*testMsg)
	if !ok {
		return 0
	}
	if repeatsBody(tm, prev) {
		return 1
	}
	return 1 + wire.SizeString(tm.Body)
}

func (testCodec) EncodeAfter(w *wire.Buffer, msg, prev chord.Message) error {
	tm, ok := msg.(*testMsg)
	if !ok {
		return fmt.Errorf("testCodec: unexpected %T", msg)
	}
	if repeatsBody(tm, prev) {
		w.PutUvarint(1)
		return nil
	}
	w.PutUvarint(0)
	w.PutString(tm.Body)
	return nil
}

func (testCodec) DecodeAfter(r *wire.Reader, prev chord.Message) (chord.Message, error) {
	repeat, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if repeat != 0 {
		pm, ok := prev.(*testMsg)
		if !ok {
			return nil, fmt.Errorf("testCodec: a body repeats a predecessor it does not have")
		}
		return &testMsg{Body: pm.Body}, nil
	}
	s, err := r.String()
	if err != nil {
		return nil, err
	}
	return &testMsg{Body: s}, nil
}

// testLocal records deliveries as "dstKey:body" strings, answering each with
// answer — a refusing one too, before it refuses.
type testLocal struct {
	mu     sync.Mutex
	got    []string
	fail   bool
	answer byte
}

func (l *testLocal) DeliverLocal(dstKey string, msg chord.Message) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	msg.(*testMsg).reply = l.answer
	if l.fail {
		return false
	}
	l.got = append(l.got, dstKey+":"+msg.(*testMsg).Body)
	return true
}

func (l *testLocal) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.got...)
}

// clientConnTo returns tr's connection to addr.
func clientConnTo(t *testing.T, tr *TCP, addr string) *clientConn {
	t.Helper()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	p := tr.peers[addr]
	if p == nil || p.conn == nil {
		t.Fatalf("no connection to %s", addr)
	}
	return p.conn
}

// handleFrame processes one standalone frame and returns the reply payload
// (or nil for none): what a connection's serveFrame does over its state.
func (t *TCP) handleFrame(payload []byte) ([]byte, error) {
	st := &serveState{}
	beginFrame(&st.reply)
	hasReply, err := t.handleFrameInto(st, payload)
	if err != nil || !hasReply {
		return nil, err
	}
	return append([]byte(nil), st.reply.Bytes()[frameHeaderLen:]...), nil
}

// Standalone frame payloads, built with the encoders the transport uses.

func encodeAck(seq uint64, statuses []byte) []byte {
	var w wire.Buffer
	ackInto(&w, seq, statuses)
	return w.Bytes()
}

func encodeJoin(seq uint64, addr string) []byte {
	var w wire.Buffer
	joinInto(&w, seq, addr)
	return w.Bytes()
}

func encodeView(seq uint64, v *wire.MemberView) []byte {
	var w wire.Buffer
	viewInto(&w, seq, v)
	return w.Bytes()
}

func encodeViewAck(seq, version uint64) []byte {
	var w wire.Buffer
	viewAckInto(&w, seq, version)
	return w.Bytes()
}

// appendBatchEntry appends one {dstKey, msg} entry to a batch body, msg
// already in codec form.
func appendBatchEntry(w *wire.Buffer, dstKey string, msg []byte) {
	w.PutString(dstKey)
	w.PutBytes(msg)
}

// testNodes builds a two-node overlay purely to have *chord.Node values
// carrying keys peer0 and peer1.
func testNodes(t *testing.T) (*chord.Node, *chord.Node) {
	t.Helper()
	nw := chord.New(chord.Config{})
	nodes := nw.AddNodes("peer", 2)
	if len(nodes) != 2 {
		t.Fatalf("AddNodes gave %d nodes, want 2", len(nodes))
	}
	return nodes[0], nodes[1]
}

// startTransport builds a TCP transport serving on a fresh loopback
// listener and returns it with its bound address.
func startTransport(t *testing.T, cfg Config) (*TCP, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	if cfg.Self == "" {
		cfg.Self = ln.Addr().String()
	}
	if cfg.Codec == nil {
		cfg.Codec = testCodec{}
	}
	if cfg.OwnerOf == nil {
		// Receiver-side transports in these tests never send.
		cfg.OwnerOf = func(id.ID) string { return "" }
	}
	tr, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	tr.Start(ln)
	t.Cleanup(func() { _ = tr.Close() })
	return tr, ln.Addr().String()
}

func TestDeliverAcrossTCP(t *testing.T) {
	from, dst := testNodes(t)
	remote := &testLocal{}
	regB := obs.NewRegistry()
	_, addrB := startTransport(t, Config{Local: remote, Obs: regB})

	regA := obs.NewRegistry()
	localA := &testLocal{}
	trA, _ := startTransport(t, Config{
		Local:   localA,
		OwnerOf: func(id.ID) string { return addrB },
		Obs:     regA,
	})

	if !trA.Deliver(from, dst, &testMsg{Body: "hello"}) {
		t.Fatalf("Deliver returned false")
	}
	got := remote.snapshot()
	if len(got) != 1 || got[0] != dst.Key()+":hello" {
		t.Fatalf("remote got %v, want [%s:hello]", got, dst.Key())
	}
	if n := len(localA.snapshot()); n != 0 {
		t.Fatalf("local deliverer saw %d messages, want 0", n)
	}
	if v := regA.Counter("transport.dials").Value(); v != 1 {
		t.Fatalf("dials = %d, want 1", v)
	}
	if v := regA.Counter("transport.frame_bytes_out").Value(); v == 0 {
		t.Fatalf("frame_bytes_out = 0, want > 0")
	}
}

func TestDeliverBatchSingleRPC(t *testing.T) {
	from, dst := testNodes(t)
	remote := &testLocal{}
	_, addrB := startTransport(t, Config{Local: remote})

	reg := obs.NewRegistry()
	trA, _ := startTransport(t, Config{
		Local:   &testLocal{},
		OwnerOf: func(id.ID) string { return addrB },
		Obs:     reg,
	})

	msgs := []chord.Message{&testMsg{Body: "a"}, &testMsg{Body: "b"}, &testMsg{Body: "c"}}
	acks := trA.DeliverBatch(from, dst, msgs)
	for i, ok := range acks {
		if !ok {
			t.Fatalf("ack[%d] = false", i)
		}
	}
	if got := remote.snapshot(); len(got) != 3 || got[0] != dst.Key()+":a" || got[2] != dst.Key()+":c" {
		t.Fatalf("remote got %v", got)
	}
	// Hello + one batch frame, not one frame per message.
	if v := reg.Counter("transport.frames_out").Value(); v != 2 {
		t.Fatalf("frames_out = %d, want 2 (hello + batch)", v)
	}
}

func TestLocalShortCircuit(t *testing.T) {
	from, dst := testNodes(t)
	reg := obs.NewRegistry()
	local := &testLocal{}
	tr, _ := startTransport(t, Config{
		Local:   local,
		OwnerOf: func(id.ID) string { return "" }, // everything local
		Obs:     reg,
	})
	if !tr.Deliver(from, dst, &testMsg{Body: "x"}) {
		t.Fatalf("Deliver returned false")
	}
	if got := local.snapshot(); len(got) != 1 {
		t.Fatalf("local got %v, want one delivery", got)
	}
	if v := reg.Counter("transport.dials").Value(); v != 0 {
		t.Fatalf("dials = %d, want 0 for local delivery", v)
	}
}

func TestPoolReuseAndReconnect(t *testing.T) {
	from, dst := testNodes(t)
	remote := &testLocal{}
	_, addrB := startTransport(t, Config{Local: remote})

	reg := obs.NewRegistry()
	trA, _ := startTransport(t, Config{
		Local:       &testLocal{},
		OwnerOf:     func(id.ID) string { return addrB },
		Obs:         reg,
		BackoffBase: time.Millisecond,
	})

	for i := 0; i < 3; i++ {
		if !trA.Deliver(from, dst, &testMsg{Body: "m"}) {
			t.Fatalf("Deliver %d returned false", i)
		}
	}
	if v := reg.Counter("transport.dials").Value(); v != 1 {
		t.Fatalf("dials = %d, want 1 (the peer's connection reused)", v)
	}

	// Break the peer's one connection underneath the transport. The read
	// loop sits in a blocking read even while the connection idles, so the
	// close is detected eagerly: the loop lets go of the connection, and the
	// next RPC dials afresh.
	_ = clientConnTo(t, trA, addrB).c.Close()
	for end := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		trA.mu.Lock()
		held := trA.peers[addrB].conn != nil
		trA.mu.Unlock()
		if !held {
			break
		}
		if time.Now().After(end) {
			t.Fatal("the transport still holds the broken connection")
		}
	}

	if !trA.Deliver(from, dst, &testMsg{Body: "after"}) {
		t.Fatalf("Deliver after broken conn returned false")
	}
	if v := reg.Counter("transport.reconnects").Value(); v != 1 {
		t.Fatalf("reconnects = %d, want 1", v)
	}
}

func TestRPCFailureReturnsNack(t *testing.T) {
	from, dst := testNodes(t)
	reg := obs.NewRegistry()
	// Dead address: a listener bound then closed, so nothing answers.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	dead := ln.Addr().String()
	_ = ln.Close()

	tr, _ := startTransport(t, Config{
		Local:       &testLocal{},
		OwnerOf:     func(id.ID) string { return dead },
		Obs:         reg,
		Attempts:    2,
		BackoffBase: time.Millisecond,
		BackoffMax:  2 * time.Millisecond,
		DialTimeout: 200 * time.Millisecond,
	})
	if tr.Deliver(from, dst, &testMsg{Body: "x"}) {
		t.Fatalf("Deliver to dead peer returned true")
	}
	if v := reg.Counter("transport.rpc_failures").Value(); v != 1 {
		t.Fatalf("rpc_failures = %d, want 1", v)
	}
	if v := reg.Counter("transport.retries").Value(); v != 1 {
		t.Fatalf("retries = %d, want 1 (attempts=2)", v)
	}
}

// blockingLocal holds every delivery until release is closed, closing entered
// when the first one arrives.
type blockingLocal struct {
	entered, release chan struct{}
	once             sync.Once
}

func (l *blockingLocal) DeliverLocal(string, chord.Message) bool {
	l.once.Do(func() { close(l.entered) })
	<-l.release
	return true
}

// Membership RPCs ride the batch path: the same pipelined connection
// (a join and a view answered while a batch waits on that connection, one dial
// in all) and the same retry budget and counters when nothing answers.
func TestMembershipAndBatchShareOneConnection(t *testing.T) {
	from, dst := testNodes(t)
	held := &blockingLocal{entered: make(chan struct{}), release: make(chan struct{})}
	_, addrB := startTransport(t, Config{Local: held, Membership: &fuzzMembership{}})
	reg := obs.NewRegistry()
	trA, _ := startTransport(t, Config{
		Local:   &testLocal{},
		OwnerOf: func(id.ID) string { return addrB },
		Obs:     reg,
	})
	release := sync.OnceFunc(func() { close(held.release) })
	t.Cleanup(release) // before the transports close: B's handler must return

	delivered := make(chan bool, 1)
	go func() { delivered <- trA.Deliver(from, dst, &testMsg{Body: "held"}) }()
	<-held.entered
	view, err := trA.SendJoin(addrB)
	if err != nil || view.Version != 1 || len(view.Procs) != 1 {
		t.Fatalf("SendJoin beside a batch in flight = %+v, %v", view, err)
	}
	version, err := trA.SendView(addrB, &wire.MemberView{Version: 5, Procs: []string{"a", "b"}})
	if err != nil || version != 5 {
		t.Fatalf("SendView beside a batch in flight = %d, %v; want 5", version, err)
	}
	release()
	if !<-delivered {
		t.Fatalf("the batch behind the membership RPCs was not acked")
	}
	if v := reg.Counter("transport.dials").Value(); v != 1 {
		t.Fatalf("dials = %d, want 1: membership and batch share the peer's connection", v)
	}

	// A listener that hangs up before any reply: every attempt dials and fails.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			_ = c.Close()
		}
	}()
	silent := ln.Addr().String()
	const attempts = 3
	spend := func(rpc func(tr *TCP) bool) (dials, retries, failures int64) {
		reg := obs.NewRegistry()
		tr, _ := startTransport(t, Config{
			Local:       &testLocal{},
			OwnerOf:     func(id.ID) string { return silent },
			Obs:         reg,
			Attempts:    attempts,
			BackoffBase: time.Millisecond,
			BackoffMax:  2 * time.Millisecond,
			Logf:        func(string, ...interface{}) {},
		})
		if rpc(tr) {
			t.Fatalf("an RPC to a listener that never answers succeeded")
		}
		return reg.Counter("transport.dials").Value(), reg.Counter("transport.retries").Value(),
			reg.Counter("transport.rpc_failures").Value()
	}
	vd, vr, vf := spend(func(tr *TCP) bool {
		_, err := tr.SendView(silent, &wire.MemberView{Version: 1})
		return err == nil
	})
	bd, br, bf := spend(func(tr *TCP) bool { return tr.Deliver(from, dst, &testMsg{Body: "x"}) })
	if vd != attempts || vr != attempts-1 || vf != 1 {
		t.Fatalf("SendView: dials %d, retries %d, rpc_failures %d; want %d, %d, 1", vd, vr, vf, attempts, attempts-1)
	}
	if bd != vd || br != vr || bf != vf {
		t.Fatalf("a batch spent dials %d, retries %d, rpc_failures %d; SendView %d, %d, %d", bd, br, bf, vd, vr, vf)
	}
}

// A handler's answer rides the ack: across a remote frame in the status byte
// above its ok bit, written back into each sender's message; on the local path
// left in the message itself. A delivery that fails answers nothing, whatever
// its handler left behind.
func TestReplyRidesTheAck(t *testing.T) {
	from, dst := testNodes(t)
	_, addrB := startTransport(t, Config{Local: &testLocal{answer: 127}})
	_, addrC := startTransport(t, Config{Local: &testLocal{answer: 5, fail: true}})
	owner := addrB
	trA, _ := startTransport(t, Config{
		Local: &testLocal{answer: 3},
		OwnerOf: func(pos id.ID) string {
			if pos == dst.ID() {
				return owner
			}
			return ""
		},
	})
	msgs := []chord.Message{&testMsg{Body: "a"}, &testMsg{Body: "a"}, &testMsg{Body: "b"}}
	for i, ok := range trA.DeliverBatch(from, dst, msgs) {
		if got := msgs[i].(*testMsg).reply; !ok || got != 127 {
			t.Fatalf("remote entry %d: acked %v with reply %d, want true and 127", i, ok, got)
		}
	}
	local := &testMsg{Body: "l"}
	if !trA.Deliver(dst, from, local) || local.reply != 3 {
		t.Fatalf("local delivery: reply %d, want 3", local.reply)
	}
	owner = addrC
	refused := &testMsg{Body: "x"}
	if trA.Deliver(from, dst, refused) || refused.reply != 0 {
		t.Fatalf("a refused delivery acked or answered %d", refused.reply)
	}
}

func TestDeadDestinationNacks(t *testing.T) {
	from, dst := testNodes(t)
	remote := &testLocal{fail: true}
	_, addrB := startTransport(t, Config{Local: remote})
	tr, _ := startTransport(t, Config{
		Local:   &testLocal{},
		OwnerOf: func(id.ID) string { return addrB },
	})
	if tr.Deliver(from, dst, &testMsg{Body: "x"}) {
		t.Fatalf("Deliver returned true for a refusing destination")
	}
}

func TestFrameLimits(t *testing.T) {
	// A forged length prefix must be rejected before allocation.
	server, client := net.Pipe()
	defer func() { _ = server.Close() }()
	defer func() { _ = client.Close() }()
	go func() {
		_, _ = client.Write([]byte{0xff, 0xff, 0xff, 0xff})
	}()
	if _, err := readFrame(bufio.NewReader(server)); err == nil {
		t.Fatalf("readFrame accepted an oversized frame header")
	}

	// Outbound frames past the cap are refused locally.
	if err := writeFrame(client, make([]byte, maxFrame+1)); err == nil {
		t.Fatalf("writeFrame accepted an oversized payload")
	}
}

func TestAckValidation(t *testing.T) {
	statuses := []byte{ackOK, ackFail, ackOK}
	frame := encodeAck(7, statuses)
	r := wire.NewReader(frame)
	if err := readReplyHeader(r, frameAck, 7); err != nil {
		t.Fatalf("readReplyHeader: %v", err)
	}
	got, err := decodeAck(r, 3)
	if err != nil {
		t.Fatalf("decodeAck: %v", err)
	}
	for i := range statuses {
		if got[i] != statuses[i] {
			t.Fatalf("status[%d] = %d, want %d", i, got[i], statuses[i])
		}
	}

	// Wrong type, wrong seq and wrong count must each fail.
	if err := readReplyHeader(wire.NewReader(frame), frameViewAck, 7); err == nil {
		t.Fatalf("readReplyHeader accepted an ack for a view ack")
	}
	if err := readReplyHeader(wire.NewReader(frame), frameAck, 8); err == nil {
		t.Fatalf("readReplyHeader accepted a mismatched seq")
	}
	r = wire.NewReader(frame)
	_ = readReplyHeader(r, frameAck, 7)
	if _, err := decodeAck(r, 2); err == nil {
		t.Fatalf("decodeAck accepted a mismatched count")
	}
}

// A build that speaks an older protocol cannot decode this build's frames —
// protocol 2 not its messages, protocol 3 not an entry that leaves its tuple to
// the entry before it, protocol 4 not an interest mark, and it would index at
// the value level itself what this build's rewriters forward there; protocol 5
// not a revocation, and it would read an answer in an ack's status as a miss;
// protocol 6 would take a purge's empty key, said behind a purge of the same
// query, for a key, protocol 7 a query's empty subscriber for a subscriber,
// protocol 8 a query's token form for its SQL text, protocol 9 a
// notification's key past its batch's subscriber for a key, protocol 10 a
// chain's query or join for a two-way one's, protocol 11 would send a
// promotion's migrate frame, tag 19, and protocol 12 a hot-join under tag 17,
// both of which this build reads as an unknown tag — so the two must part at
// the handshake, whichever dials.
// When the old build answers, this dialer refuses its helloOK with an error
// naming both versions and sends it no batch; when the old build dials, its
// hello is answered with this build's version, the number its own copy of that
// check refuses.
func TestOlderProtocolPeerRefusedAtHello(t *testing.T) {
	if protoVersion != 14 {
		t.Fatalf("protoVersion = %d: this test is about 14 meeting 2 to 13", protoVersion)
	}
	for _, oldVersion := range []uint64{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13} {
		olderPeerRefused(t, oldVersion)
	}
}

func olderPeerRefused(t *testing.T, oldVersion uint64) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer func() { _ = ln.Close() }()
	afterHello := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			afterHello <- err
			return
		}
		defer func() { _ = c.Close() }()
		br := bufio.NewReader(c)
		if _, err := readFrame(br); err != nil {
			afterHello <- err
			return
		}
		var w wire.Buffer
		w.PutUvarint(frameHelloOK)
		w.PutUvarint(oldVersion)
		if err := writeFrame(c, w.Bytes()); err != nil {
			afterHello <- err
			return
		}
		_, err = readFrame(br) // the dialer hangs up; a batch would arrive here
		afterHello <- err
	}()
	var mu sync.Mutex
	var logged []string
	from, dst := testNodes(t)
	tr, addr := startTransport(t, Config{
		Local:    &testLocal{},
		OwnerOf:  func(id.ID) string { return ln.Addr().String() },
		Attempts: 1,
		Logf: func(format string, args ...interface{}) {
			mu.Lock()
			defer mu.Unlock()
			logged = append(logged, fmt.Sprintf(format, args...))
		},
	})
	if tr.Deliver(from, dst, &testMsg{Body: "x"}) {
		t.Fatalf("delivered to a peer that speaks protocol %d", oldVersion)
	}
	if err := <-afterHello; err == nil {
		t.Fatalf("the dialer sent a frame after a protocol-%d helloOK", oldVersion)
	}
	mu.Lock()
	lines := strings.Join(logged, "\n")
	mu.Unlock()
	if !strings.Contains(lines, fmt.Sprintf("peer speaks protocol %d, want %d", oldVersion, protoVersion)) {
		t.Fatalf("the refusal does not name both versions:\n%s", lines)
	}

	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c.Close() }()
	var hello wire.Buffer
	hello.PutUvarint(frameHello)
	hello.PutUvarint(oldVersion)
	hello.PutString("127.0.0.1:1")
	if err := writeFrame(c, hello.Bytes()); err != nil {
		t.Fatal(err)
	}
	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := readFrame(bufio.NewReader(c))
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(reply)
	if ftype, _ := r.Uvarint(); ftype != frameHelloOK {
		t.Fatalf("a protocol-%d hello was answered with frame type %d", oldVersion, ftype)
	}
	if v, err := r.Uvarint(); err != nil || v != protoVersion {
		t.Fatalf("a protocol-%d hello was answered with version %d (%v), want %d", oldVersion, v, err, protoVersion)
	}
}

// Two peers whose catalogs differ give a relation or an attribute different
// ordinals, and a query's token form names ordinals: they part at the
// handshake, before any batch, and the dialer's refusal names both digests.
// Peers of one digest talk.
func TestCatalogMismatchRefusedAtHello(t *testing.T) {
	from, dst := testNodes(t)
	for _, tc := range []struct {
		ours, theirs uint64
		delivered    bool
	}{{0x1111, 0x2222, false}, {0x1111, 0x1111, true}} {
		remote := &testLocal{}
		_, addr := startTransport(t, Config{Local: remote, Codec: testCodec{digest: tc.theirs}})
		var mu sync.Mutex
		var logged []string
		tr, _ := startTransport(t, Config{
			Local:    &testLocal{},
			Codec:    testCodec{digest: tc.ours},
			OwnerOf:  func(id.ID) string { return addr },
			Attempts: 1,
			Logf: func(format string, args ...interface{}) {
				mu.Lock()
				defer mu.Unlock()
				logged = append(logged, fmt.Sprintf(format, args...))
			},
		})
		if got := tr.Deliver(from, dst, &testMsg{Body: "x"}); got != tc.delivered || len(remote.snapshot()) != btoi(tc.delivered) {
			t.Fatalf("digests %016x and %016x: delivered %v, %d messages arrived", tc.ours, tc.theirs, got, len(remote.snapshot()))
		}
		mu.Lock()
		lines := strings.Join(logged, "\n")
		mu.Unlock()
		if want := fmt.Sprintf("peer's catalog digest is %016x, ours %016x", tc.theirs, tc.ours); !tc.delivered && !strings.Contains(lines, want) {
			t.Fatalf("the refusal does not name both digests:\n%s", lines)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
