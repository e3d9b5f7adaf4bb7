package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/obs"
)

// A released slot holds nothing of its last call — neither its reply nor its
// error — so the request that claims it next cannot read them; it keeps its
// buffer's capacity for the next reply, and no longer awaits the old seq.
func TestReleasedSlotHoldsNothingOfItsLastCall(t *testing.T) {
	c, peer := net.Pipe()
	t.Cleanup(func() { _, _ = c.Close(), peer.Close() })
	cc := newClientConn(c)
	s, err := cc.claim(1)
	if err != nil {
		t.Fatal(err)
	}
	if cc.take(1) != s {
		t.Fatal("the claimed slot does not await its seq")
	}
	s.buf = make([]byte, 64)
	s.payload, s.err = s.buf[:3], errors.New("stale")
	cc.release(s)
	next, err := cc.claim(2)
	if err != nil || next != s {
		t.Fatalf("claim = %p, %v; want the connection's one slot %p", next, err, s)
	}
	if next.payload != nil || next.err != nil {
		t.Fatalf("released slot carries its last call: payload=%v err=%v", next.payload, next.err)
	}
	if cap(next.buf) != 64 {
		t.Fatalf("released slot's buffer has capacity %d, want the 64 it grew to", cap(next.buf))
	}
	if cc.take(1) != nil || cc.take(2) != next {
		t.Fatal("the slot awaits the wrong seq")
	}
	if other, err := cc.claim(3); err != nil || other == next || len(cc.slots) != 2 {
		t.Fatalf("a claim while the one slot is taken got %p, %v, of %d slots; want a new slot", other, err, len(cc.slots))
	}
}

// oneFrame is a 100-byte payload framed: its length, then itself.
func oneFrame() (frame, payload []byte) {
	payload = bytes.Repeat([]byte("p"), 100)
	return append(binary.BigEndian.AppendUint32(nil, 100), payload...), payload
}

// Reading a frame into a buffer that has grown allocates nothing: the
// header is read in place in the bufio.Reader's buffer (1 allocation while
// it was an array io.ReadFull read into).
func TestReadFrameAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	frame, payload := oneFrame()
	r := bytes.NewReader(frame)
	br := bufio.NewReader(r)
	var buf []byte
	read := func() {
		r.Reset(frame)
		br.Reset(r)
		if got, err := readFrameReuse(br, &buf); err != nil || !bytes.Equal(got, payload) {
			t.Fatalf("readFrameReuse = %q, %v", got, err)
		}
	}
	read()
	if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
		t.Fatalf("readFrameReuse allocates %.2f times per frame, want 0", allocs)
	}
}

// A stream that ends between frames is io.EOF, the quiet end of a
// connection; one cut inside a header or a payload is io.ErrUnexpectedEOF,
// which the server logs.
func TestReadFrameCutShort(t *testing.T) {
	frame, _ := oneFrame()
	for _, cut := range []int{0, 1, 3, frameHeaderLen + 50} {
		want := io.ErrUnexpectedEOF
		if cut == 0 {
			want = io.EOF
		}
		var buf []byte
		if _, err := readFrameReuse(bufio.NewReader(bytes.NewReader(frame[:cut])), &buf); err != want {
			t.Fatalf("stream cut after %d bytes: %v, want %v", cut, err, want)
		}
	}
}

// A frame past bufKeepCap does not pin its size on the connection it crossed:
// after a batch of two 3 MiB bodies, then a small batch on the same
// connection, the client's frame buffer and every server state's read buffer
// are within the cap.
func TestLargeFrameLeavesNoLargeBuffer(t *testing.T) {
	from, dst := testNodes(t)
	remote := &testLocal{}
	trB, addrB := startTransport(t, Config{Local: remote})
	reg := obs.NewRegistry()
	trA, _ := startTransport(t, Config{
		Local:   &testLocal{},
		OwnerOf: func(id.ID) string { return addrB },
		Obs:     reg,
	})
	big := []chord.Message{&testMsg{Body: strings.Repeat("a", 3<<20)}, &testMsg{Body: strings.Repeat("b", 3<<20)}}
	for _, run := range [][]chord.Message{big, {&testMsg{Body: "c"}}} {
		for i, ok := range trA.DeliverBatch(from, dst, run) {
			if !ok {
				t.Fatalf("message %d of a run of %d was not acked", i, len(run))
			}
		}
	}
	if v := reg.Counter("transport.frames_out").Value(); v != 3 {
		t.Fatalf("frames_out = %d, want 3 (hello and one frame a batch)", v)
	}
	if c := cap(clientConnTo(t, trA, addrB).w.Bytes()); c > bufKeepCap {
		t.Errorf("the client's frame buffer kept %d bytes, want at most %d", c, bufKeepCap)
	}
	// Once the client closes, the server's connection drains its workers,
	// and every state it made is free.
	cs := serverConn(t, trB)
	_ = trA.Close()
	for end := time.Now().Add(5 * time.Second); serverConnCount(trB) > 0; time.Sleep(time.Millisecond) {
		if time.Now().After(end) {
			t.Fatal("the server kept its connection after the client closed")
		}
	}
	if len(cs.free) == 0 {
		t.Fatal("the server's connection gave back no state")
	}
	for i, st := range cs.free {
		if c := cap(st.readBuf); c > bufKeepCap {
			t.Errorf("server state %d's read buffer kept %d bytes, want at most %d", i, c, bufKeepCap)
		}
	}
}
