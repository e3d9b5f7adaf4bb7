package durable

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/wire"
	"cqjoin/internal/workload"
)

// walImage builds a WAL with n sequential records of distinct payloads.
func walImage(n int) []byte {
	var data []byte
	for i := 1; i <= n; i++ {
		rec := bytes.Repeat([]byte{byte(i)}, 5+i)
		data = appendFrame(data, uint64(i), rec)
	}
	return data
}

// frameBounds returns the byte range [start, end) of the i-th (0-based)
// frame in a well-formed image.
func frameBounds(t *testing.T, data []byte, i int) (int, int) {
	t.Helper()
	off := 0
	for k := 0; ; k++ {
		if off+frameHeaderLen > len(data) {
			t.Fatalf("image has fewer than %d frames", i+1)
		}
		plen := int(binary.LittleEndian.Uint32(data[off : off+4]))
		end := off + frameHeaderLen + plen + frameTrailerLen
		if k == i {
			return off, end
		}
		off = end
	}
}

func TestScanFramesRoundTrip(t *testing.T) {
	data := walImage(4)
	recs, clean, err := scanFrames(data)
	if err != nil {
		t.Fatalf("scan: %v", err)
	}
	if clean != int64(len(data)) {
		t.Fatalf("clean = %d, want %d", clean, len(data))
	}
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	for i, rec := range recs {
		if rec.lsn != uint64(i+1) {
			t.Errorf("record %d has lsn %d", i, rec.lsn)
		}
		want := bytes.Repeat([]byte{byte(i + 1)}, 5+i+1)
		if !bytes.Equal(rec.data, want) {
			t.Errorf("record %d payload mismatch", i)
		}
	}
	if _, _, err := scanFrames(nil); err != nil {
		t.Fatalf("empty image: %v", err)
	}
}

// TestScanFramesTornTail: every strict prefix that ends inside the last
// frame is a torn append — tolerated, with the clean length pointing at
// the last complete frame.
func TestScanFramesTornTail(t *testing.T) {
	data := walImage(3)
	start, end := frameBounds(t, data, 2)
	for cut := start + 1; cut < end; cut++ {
		recs, clean, err := scanFrames(data[:cut])
		if err != nil {
			t.Fatalf("cut at %d: unexpected error %v", cut, err)
		}
		if clean != int64(start) {
			t.Fatalf("cut at %d: clean = %d, want %d", cut, clean, start)
		}
		if len(recs) != 2 {
			t.Fatalf("cut at %d: got %d records, want 2", cut, len(recs))
		}
	}
}

// TestScanFramesCorruption: damage before the tail is corruption, never a
// silent truncation (ISSUE 10 satellite). Each case mutates a well-formed
// three-record image and must yield a CorruptError.
func TestScanFramesCorruption(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(t *testing.T, data []byte) []byte
		reason string
	}{
		{
			name: "payload bit flip",
			mutate: func(t *testing.T, data []byte) []byte {
				start, _ := frameBounds(t, data, 1)
				data[start+frameHeaderLen+2] ^= 0x40
				return data
			},
			reason: "payload crc mismatch",
		},
		{
			name: "trailer bit flip",
			mutate: func(t *testing.T, data []byte) []byte {
				_, end := frameBounds(t, data, 1)
				data[end-1] ^= 0x01
				return data
			},
			reason: "payload crc mismatch",
		},
		{
			name: "length bit flip",
			mutate: func(t *testing.T, data []byte) []byte {
				start, _ := frameBounds(t, data, 1)
				data[start] ^= 0x04 // plen no longer matches its CRC
				return data
			},
			reason: "header crc mismatch",
		},
		{
			name: "header crc bit flip",
			mutate: func(t *testing.T, data []byte) []byte {
				start, _ := frameBounds(t, data, 1)
				data[start+5] ^= 0x80
				return data
			},
			reason: "header crc mismatch",
		},
		{
			name: "zero length frame",
			mutate: func(t *testing.T, data []byte) []byte {
				start, end := frameBounds(t, data, 1)
				var hdr [frameHeaderLen]byte
				// A consistent header claiming an empty payload: the CRC is
				// right, the length itself is implausible.
				copy(hdr[4:8], crcBytes(hdr[0:4]))
				return append(append(data[:start:start], hdr[:]...), data[end:]...)
			},
			reason: "implausible payload length",
		},
		{
			name: "duplicated record",
			mutate: func(t *testing.T, data []byte) []byte {
				start, end := frameBounds(t, data, 1)
				dup := append([]byte(nil), data[start:end]...)
				return append(append(data[:end:end], dup...), data[end:]...)
			},
			reason: "lsn discontinuity",
		},
		{
			name: "dropped record",
			mutate: func(t *testing.T, data []byte) []byte {
				start, end := frameBounds(t, data, 1)
				return append(data[:start:start], data[end:]...)
			},
			reason: "lsn discontinuity",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := tc.mutate(t, walImage(3))
			_, _, err := scanFrames(data)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("scan returned %v, want CorruptError", err)
			}
			if !bytes.Contains([]byte(ce.Reason), []byte(tc.reason)) {
				t.Errorf("reason = %q, want it to mention %q", ce.Reason, tc.reason)
			}
		})
	}
}

// crcBytes returns the little-endian CRC-32C of b.
func crcBytes(b []byte) []byte {
	sum := make([]byte, 4)
	binary.LittleEndian.PutUint32(sum, crc32.Checksum(b, castagnoli))
	return sum
}

func TestParseOneFrame(t *testing.T) {
	payload := []byte("snapshot payload bytes")
	data := appendFramedPayload(nil, payload)
	got, err := parseOneFrame(data)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload mismatch")
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"short file", data[:6]},
		{"truncated payload", data[:len(data)-3]},
		{"trailing garbage", append(append([]byte(nil), data...), 0xEE)},
		{"flipped payload", flipBit(data, frameHeaderLen+1)},
		{"flipped header", flipBit(data, 1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseOneFrame(tc.data)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("parse returned %v, want CorruptError", err)
			}
		})
	}
}

func flipBit(data []byte, i int) []byte {
	cp := append([]byte(nil), data...)
	cp[i] ^= 0x10
	return cp
}

// TestOpenRejectsCorruptWAL: Open must surface a CorruptError for damage
// before the torn tail instead of replaying a mangled prefix — and must
// tolerate (and truncate) a genuinely torn tail in the same file.
func TestOpenRejectsCorruptWAL(t *testing.T) {
	catalog := workload.New(workload.Params{Seed: 5}).Catalog()
	seedDir := func(t *testing.T) string {
		dir := t.TempDir()
		st, err := Open(dir, catalog, Options{SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		net := chord.New(chord.Config{})
		net.AddNodes("peer", 8)
		eng := engine.New(net, catalog, engine.Config{Seed: 5})
		if _, err := st.Recover(eng); err != nil {
			t.Fatalf("recover: %v", err)
		}
		for i := 0; i < 3; i++ {
			if err := st.LogView(&wire.MemberView{Version: uint64(i + 1), Procs: []string{"a:1"}}); err != nil {
				t.Fatalf("log: %v", err)
			}
		}
		st.Abandon()
		return dir
	}

	t.Run("corrupt record fails open", func(t *testing.T) {
		dir := seedDir(t)
		path := filepath.Join(dir, walName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x20 // damage the middle record's payload
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(dir, catalog, Options{})
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("Open returned %v, want CorruptError", err)
		}
	})

	t.Run("torn tail truncated", func(t *testing.T) {
		dir := seedDir(t)
		path := filepath.Join(dir, walName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		torn := append(data, data[:frameHeaderLen+3]...) // a partial fourth append
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, catalog, Options{})
		if err != nil {
			t.Fatalf("open with torn tail: %v", err)
		}
		net := chord.New(chord.Config{})
		net.AddNodes("peer", 8)
		eng := engine.New(net, catalog, engine.Config{Seed: 5})
		info, err := st.Recover(eng)
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		if info.TornBytes != int64(frameHeaderLen+3) {
			t.Errorf("TornBytes = %d, want %d", info.TornBytes, frameHeaderLen+3)
		}
		if info.Replayed != 3 {
			t.Errorf("replayed %d records, want 3", info.Replayed)
		}
		if info.View == nil || info.View.Version != 3 {
			t.Errorf("view = %+v, want version 3", info.View)
		}
		st.Abandon()
		if fi, err := os.Stat(path); err != nil || fi.Size() != int64(len(data)) {
			t.Errorf("wal size after truncation = %v/%v, want %d", fi, err, len(data))
		}
	})

	t.Run("corrupt snapshot fails open", func(t *testing.T) {
		dir := seedDir(t)
		// Promote the WAL into a snapshot first.
		st, err := Open(dir, catalog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		net := chord.New(chord.Config{})
		net.AddNodes("peer", 8)
		eng := engine.New(net, catalog, engine.Config{Seed: 5})
		if _, err := st.Recover(eng); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, snapName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x08
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(dir, catalog, Options{})
		var ce *CorruptError
		if !errors.As(err, &ce) {
			t.Fatalf("Open returned %v, want CorruptError", err)
		}
	})
}

// TestRecordCodecRoundTrip pushes one record of every tag through the
// encode/size/decode triple. Decoded tuples rebuild their schema objects,
// so equality is checked at the byte level: re-encoding the decoded record
// must reproduce the original encoding exactly.
func TestRecordCodecRoundTrip(t *testing.T) {
	gen := workload.New(workload.Params{Seed: 9})
	recs := []any{
		subscribeRec{Node: "peer1", SQL: "SELECT R0.a0 FROM R0, S0 WHERE R0.a0 = S0.a1", Key: "peer1#4"},
		subscribeRec{Node: "peer2", SQL: "chain", Key: "peer2#0", Multi: true},
		unsubscribeRec{Node: "peer1", SQL: "q", Key: "peer1#4", Multi: false},
		publishRec{Node: "peer3", T: gen.Tuple()},
		deliveryRec{Node: "peer5", Frame: []byte{1, 2, 3, 4}},
		viewRec{View: &wire.MemberView{Version: 9, Procs: []string{"x:1", "y:2"}}},
	}
	for i, rec := range recs {
		var w wire.Buffer
		if err := encodeRecord(&w, rec); err != nil {
			t.Fatalf("record %d: encode: %v", i, err)
		}
		if got := len(w.Bytes()); got != recordSize(rec) {
			t.Errorf("record %d: encoded %d bytes, recordSize says %d", i, got, recordSize(rec))
		}
		var r wire.Reader
		r.Reset(w.Bytes())
		back, err := decodeRecord(&r)
		if err != nil {
			t.Fatalf("record %d: decode: %v", i, err)
		}
		if reflect.TypeOf(back) != reflect.TypeOf(rec) {
			t.Fatalf("record %d: decoded as %T, want %T", i, back, rec)
		}
		var w2 wire.Buffer
		if err := encodeRecord(&w2, back); err != nil {
			t.Fatalf("record %d: re-encode: %v", i, err)
		}
		if !bytes.Equal(w.Bytes(), w2.Bytes()) {
			t.Errorf("record %d: re-encoding the decoded record diverges", i)
		}
	}
}
