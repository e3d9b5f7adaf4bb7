package engine

import (
	"bytes"
	"testing"

	"cqjoin/internal/wire"
)

// FuzzCodecRoundTrip throws arbitrary bytes at DecodeMessage. The
// contract: never panic, never allocate proportionally to a forged length
// prefix (wire.Coder.Count's guard), and every ACCEPTED message must
// re-encode, in exactly MessageSize bytes, to a stable canonical form —
// encode(decode(b)) decodes again and re-encodes to the identical bytes. Every input is also decoded
// through one WireCodec that lives as long as the run: whatever its memo
// has collected from the inputs before, it must accept exactly what a
// memo-less decode accepts and decode it to the same message. The seed
// corpus is one valid encoding of every engine message type, and messages
// whose first element repeats a predecessor it does not have.
func FuzzCodecRoundTrip(f *testing.F) {
	catalog, msgs := codecFixtures(f)
	for _, msg := range msgs {
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			f.Fatalf("%T: seed encode: %v", msg, err)
		}
		f.Add(w.Bytes())
	}
	rw := msgs[3].(joinMsg).Rewrites[0]
	for _, data := range orphanMarkers(f, rw.Orig, rw.rewriteTarget) {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(tagJoin), 0xff, 0xff, 0xff, 0xff, 0x0f}) // forged huge count
	longLived := NewWireCodec(catalog)
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(wire.NewReader(data), catalog)
		memoMsg, memoErr := longLived.Decode(wire.NewReader(data))
		if (err == nil) != (memoErr == nil) {
			t.Fatalf("without a memo: %v; through a long-lived one: %v", err, memoErr)
		}
		if err != nil {
			return // malformed input rejected cleanly: that is the point
		}
		var w1 wire.Buffer
		if err := EncodeMessage(&w1, msg); err != nil {
			t.Fatalf("accepted message fails to re-encode: %v", err)
		}
		if size := MessageSize(msg); size != w1.Len() {
			t.Fatalf("%T: MessageSize says %d, the encoding is %d bytes", msg, size, w1.Len())
		}
		var wm wire.Buffer
		if err := EncodeMessage(&wm, memoMsg); err != nil || !bytes.Equal(w1.Bytes(), wm.Bytes()) {
			t.Fatalf("a long-lived memo changed the decoded message (%v):\nwithout: %x\nwith:    %x", err, w1.Bytes(), wm.Bytes())
		}
		msg2, err := DecodeMessage(wire.NewReader(w1.Bytes()), catalog)
		if err != nil {
			t.Fatalf("re-encoded bytes rejected: %v", err)
		}
		var w2 wire.Buffer
		if err := EncodeMessage(&w2, msg2); err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(w1.Bytes(), w2.Bytes()) {
			t.Fatalf("encoding not canonical:\nfirst:  %x\nsecond: %x", w1.Bytes(), w2.Bytes())
		}
	})
}
