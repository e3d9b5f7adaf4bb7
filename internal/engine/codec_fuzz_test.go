package engine

import (
	"bytes"
	"encoding/hex"
	"slices"
	"strings"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/relation"
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
// corpus is one valid encoding of every engine message type, messages
// whose first element repeats a predecessor it does not have, messages
// whose side is one no side field holds, queries whose token form names
// what the catalog has not or spells no query, notification batches whose
// key past their subscriber stands where none may, ints and bools their
// fields cannot hold, and a hand-off whose value-level section says its
// identifier behind the empty-input marker, whole and one byte short.
//
// Every input is then decoded as an entry of a batch frame, behind each of
// four predecessors: one carrying the fixtures' R tuple, one their S tuple,
// one (a purge) their query's key and an input, one (a join) nothing at all.
// Behind the join it must fare exactly as it does alone — a message that
// leaves its tuple or key to "the entry before me" has none there, as it has
// none first in a frame or behind an entry that did not decode (both a nil
// predecessor: the first half). Behind any of them whatever is accepted
// re-encodes, in exactly SizeAfter bytes, to a form that decodes behind the
// same predecessor to the same bytes. The corpus adds each kind that leans on
// its predecessor in the form it takes behind a message with its tuple or key,
// and a hand-off (what a snapshot holds per node) encoded so: bytes that are
// well-formed mid-frame and forged anywhere a message stands alone, a WAL
// delivery record or a snapshot included.
func FuzzCodecRoundTrip(f *testing.F) {
	catalog, msgs := codecFixtures(f)
	for _, msg := range msgs {
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			f.Fatalf("%T: seed encode: %v", msg, err)
		}
		f.Add(w.Bytes())
	}
	rw := msgs[3].(*joinMsg).Rewrites[0]
	for _, data := range orphanMarkers(f, rw.Orig, rw.rewriteTarget) {
		f.Add(data)
	}
	for _, data := range hostileSides(f, msgs) {
		f.Add(data)
	}
	for _, data := range hostileScalars(f) {
		f.Add(data)
	}
	for _, data := range hostileTokens(f, msgs[0].(queryMsg)) {
		f.Add(data)
	}
	for _, data := range hostileNotifications("peer5") {
		f.Add(data)
	}
	for _, data := range markedSections(f, catalog, msgs[2].(*vlIndexMsg).T) {
		f.Add(data)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(tagJoin), 0xff, 0xff, 0xff, 0xff, 0x0f}) // forged huge count
	for _, tag := range retiredTags {
		f.Add([]byte{byte(tag)}) // the reserved tags, once the baselines', a chain's and the hot-key layer's
	}
	for _, line := range goldenLines(f, "testdata/wire.golden") {
		// What the last build to send a retired kind wrote, alone and behind
		// its predecessor: an older peer's bytes.
		raw, err := hex.DecodeString(line[strings.LastIndexByte(line, ' ')+1:])
		if err == nil && len(raw) > 0 && slices.Contains(retiredTags, int(raw[0])) {
			f.Add(raw)
		}
	}
	longLived := NewWireCodec(catalog)
	predecessors := []chord.Message{msgs[1], msgs[2], msgs[9], msgs[3]} // alIndexMsg{tu}, vlIndexMsg{su}, purgeMsg{q}, joinMsg
	for _, msg := range msgs {
		for _, prev := range predecessors[:3] {
			if _, shared := sizeAfter(msg, prev); shared > 0 {
				var w wire.Buffer
				if err := longLived.EncodeAfter(&w, msg, prev); err != nil {
					f.Fatalf("%T behind %T: seed encode: %v", msg, prev, err)
				}
				f.Add(w.Bytes())
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := DecodeMessage(wire.NewReader(data), catalog)
		memoMsg, memoErr := longLived.Decode(wire.NewReader(data))
		if (err == nil) != (memoErr == nil) {
			t.Fatalf("without a memo: %v; through a long-lived one: %v", err, memoErr)
		}
		for _, prev := range predecessors {
			fuzzBehind(t, longLived, data, prev, err == nil)
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

// fuzzBehind decodes data as the entry behind prev in a batch frame. alone says
// whether data decodes with no predecessor.
func fuzzBehind(t *testing.T, codec WireCodec, data []byte, prev chord.Message, alone bool) {
	msg, err := codec.DecodeAfter(wire.NewReader(data), prev)
	if alone && err != nil {
		t.Fatalf("decodes alone, and behind %T: %v", prev, err)
	}
	if carried(prev) == (wire.Carried{}) && !alone && err == nil {
		t.Fatalf("does not decode alone, and behind %T, which carries nothing, to %+v", prev, msg)
	}
	if err != nil {
		return
	}
	var w1 wire.Buffer
	if err := codec.EncodeAfter(&w1, msg, prev); err != nil {
		t.Fatalf("accepted behind %T, fails to re-encode there: %v", prev, err)
	}
	if size := codec.SizeAfter(msg, prev); size != w1.Len() {
		t.Fatalf("%T behind %T: SizeAfter says %d, the encoding is %d bytes", msg, prev, size, w1.Len())
	}
	if size, shared := sizeAfter(msg, prev); size+shared != MessageSize(msg) {
		t.Fatalf("%T behind %T: %d bytes and %d shared, %d alone", msg, prev, size, shared, MessageSize(msg))
	}
	msg2, err := codec.DecodeAfter(wire.NewReader(w1.Bytes()), prev)
	if err != nil {
		t.Fatalf("re-encoded bytes rejected behind %T: %v", prev, err)
	}
	var w2 wire.Buffer
	if err := codec.EncodeAfter(&w2, msg2, prev); err != nil || !bytes.Equal(w1.Bytes(), w2.Bytes()) {
		t.Fatalf("encoding behind %T not canonical (%v):\nfirst:  %x\nsecond: %x", prev, err, w1.Bytes(), w2.Bytes())
	}
}

// markedSections returns a hand-off of one value-level section, which says
// its identifier behind an empty input (walkVLID), and the same hand-off
// forged to say a 19-byte identifier, which walkVLID must refuse.
func markedSections(tb testing.TB, catalog *relation.Catalog, tu *relation.Tuple) [][]byte {
	tb.Helper()
	h := id.Hash("S+E+7")
	var w wire.Buffer
	if err := EncodeMessage(&w, handoffMsg{VT: []vtSection{{ID: h, Tuples: []*relation.Tuple{tu}}}}); err != nil {
		tb.Fatal(err)
	}
	marked := w.Bytes()
	at := bytes.Index(marked, append([]byte{0, byte(len(h))}, h[:]...))
	if at < 0 {
		tb.Fatalf("%x says no marker and identifier", marked)
	}
	short := slices.Delete(slices.Clone(marked), at+2, at+3)
	short[at+1] = byte(len(h) - 1)
	if got, err := DecodeMessage(wire.NewReader(short), catalog); err == nil || !strings.Contains(err.Error(), "identifier of 19 bytes") {
		tb.Fatalf("a 19-byte identifier decoded to %+v (%v)", got, err)
	}
	return [][]byte{marked, short}
}
