package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestPutCallClearsFields pins the reset discipline putCall centralizes:
// every recycle path — finish and the never-enqueued error paths — clears
// payload, buf and err, so a recycled call can never leak a previous
// RPC's reply or error into the next request.
func TestPutCallClearsFields(t *testing.T) {
	cl := getCall()
	b := []byte{1, 2, 3}
	cl.payload = b
	cl.buf = &b
	cl.err = errors.New("stale")
	putCall(cl)
	got := getCall()
	defer putCall(got)
	if got.payload != nil || got.buf != nil || got.err != nil {
		t.Fatalf("recycled call carries stale state: payload=%v buf=%v err=%v",
			got.payload, got.buf, got.err)
	}
}

// TestFrameBufHeaderReserved pins getFrameBuf's contract: no matter what
// state a scratch buffer was returned in, the next getFrameBuf hands out
// an empty buffer with exactly the frame header reserved.
func TestFrameBufHeaderReserved(t *testing.T) {
	w := getBuf()
	w.PutRaw([]byte("junk left over from a previous frame"))
	putBuf(w)
	fw := getFrameBuf()
	defer putFrameBuf(fw)
	if fw.Len() != frameHeaderLen {
		t.Fatalf("getFrameBuf returned %d bytes, want the %d-byte reserved header",
			fw.Len(), frameHeaderLen)
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
