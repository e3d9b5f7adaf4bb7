package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cqjoin/internal/wire"
	"cqjoin/internal/workload"
)

// seedRecords returns one record of every tag, used both as in-code fuzz
// seeds and to regenerate the committed corpus under testdata/fuzz.
func seedRecords() []any {
	gen := workload.New(workload.Params{Seed: 11})
	return []any{
		subscribeRec{Node: "peer1", SQL: "SELECT R0.a0 FROM R0, S0 WHERE R0.a0 = S0.a1", Key: "peer1#4"},
		subscribeRec{Node: "peer2", SQL: "SELECT R0.a0, S1.a0 FROM R0, S0, R1, S1 WHERE R0.a0 = S0.a0 AND S0.a1 = R1.a1 AND R1.a0 = S1.a0", Key: "peer2#0", Multi: true},
		unsubscribeRec{Node: "peer1", SQL: "SELECT R0.a0 FROM R0, S0 WHERE R0.a0 = S0.a1", Key: "peer1#4"},
		publishRec{Node: "peer3", T: gen.Tuple()},
		deliveryRec{Node: "peer5", Frame: []byte{1, 2, 3, 4, 5}},
		viewRec{View: &wire.MemberView{Version: 9, Procs: []string{"x:1", "y:2"}}},
	}
}

// hostileRecords returns the multi-way subscription records with their flag
// forged to 2, a value no bool holds.
func hostileRecords(tb testing.TB) [][]byte {
	tb.Helper()
	var out [][]byte
	for _, rec := range []any{
		subscribeRec{Node: "peer2", SQL: "SELECT R0.a0 FROM R0, S0 WHERE R0.a0 = S0.a1", Key: "peer2#0", Multi: true},
		unsubscribeRec{Node: "peer2", SQL: "SELECT R0.a0 FROM R0, S0 WHERE R0.a0 = S0.a1", Key: "peer2#0", Multi: true},
	} {
		var w wire.Buffer
		if err := encodeRecord(&w, rec); err != nil {
			tb.Fatalf("%T: %v", rec, err)
		}
		w.Bytes()[w.Len()-1] = 2 // the flag, walked last
		out = append(out, w.Bytes())
	}
	return out
}

// FuzzRecordCodec throws arbitrary bytes at the WAL record decoder. The
// decoder must never panic; any record it accepts must re-encode (with a
// length recordSize predicts exactly) into bytes the decoder accepts
// again — the codec's canonical-form fixpoint.
func FuzzRecordCodec(f *testing.F) {
	for _, rec := range seedRecords() {
		var w wire.Buffer
		if err := encodeRecord(&w, rec); err != nil {
			f.Fatalf("encode seed %T: %v", rec, err)
		}
		f.Add(append([]byte(nil), w.Bytes()...))
	}
	for _, data := range hostileRecords(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var r wire.Reader
		r.Reset(data)
		rec, err := decodeRecord(&r)
		if err != nil {
			return // rejected input: fine, as long as it did not panic
		}
		var w wire.Buffer
		if err := encodeRecord(&w, rec); err != nil {
			t.Fatalf("accepted record %T fails to re-encode: %v", rec, err)
		}
		if len(w.Bytes()) != recordSize(rec) {
			t.Fatalf("%T: encoded %d bytes, recordSize says %d", rec, len(w.Bytes()), recordSize(rec))
		}
		var r2 wire.Reader
		r2.Reset(w.Bytes())
		if _, err := decodeRecord(&r2); err != nil {
			t.Fatalf("re-encoded %T fails to decode: %v", rec, err)
		}
	})
}

// FuzzScanFrames throws arbitrary bytes at the WAL frame scanner: it must
// never panic, must only fail with a CorruptError, must report a clean
// length inside the input, and the records it accepts must survive a
// re-frame/re-scan round trip.
func FuzzScanFrames(f *testing.F) {
	f.Add(walImage(3))
	f.Add(walImage(1)[:5]) // torn inside the first header
	damaged := walImage(2)
	damaged[frameHeaderLen+1] ^= 0x20
	f.Add(damaged)
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, clean, err := scanFrames(data)
		if err != nil {
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("scan failed with %T (%v), want CorruptError", err, err)
			}
			return
		}
		if clean < 0 || clean > int64(len(data)) {
			t.Fatalf("clean length %d outside [0, %d]", clean, len(data))
		}
		var re []byte
		for _, rec := range recs {
			re = appendFrame(re, rec.lsn, rec.data)
		}
		recs2, clean2, err := scanFrames(re)
		if err != nil {
			t.Fatalf("re-framed records fail to scan: %v", err)
		}
		if clean2 != int64(len(re)) || len(recs2) != len(recs) {
			t.Fatalf("re-scan kept %d/%d records, clean %d/%d", len(recs2), len(recs), clean2, len(re))
		}
		for i := range recs {
			if recs2[i].lsn != recs[i].lsn || !bytes.Equal(recs2[i].data, recs[i].data) {
				t.Fatalf("record %d diverged across re-frame", i)
			}
		}
	})
}

// TestWriteSeedCorpus regenerates the committed fuzz seed corpus. It is a
// maintenance tool, not a test: run with WRITE_CORPUS=1 after changing
// the record codec, then commit the testdata/fuzz updates.
func TestWriteSeedCorpus(t *testing.T) {
	if os.Getenv("WRITE_CORPUS") == "" {
		t.Skip("set WRITE_CORPUS=1 to regenerate testdata/fuzz")
	}
	write := func(target, name string, data []byte) {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for i, rec := range seedRecords() {
		var w wire.Buffer
		if err := encodeRecord(&w, rec); err != nil {
			t.Fatalf("encode seed %T: %v", rec, err)
		}
		write("FuzzRecordCodec", fmt.Sprintf("seed-%d", i), w.Bytes())
	}
	write("FuzzScanFrames", "seed-wal", walImage(3))
	write("FuzzScanFrames", "seed-torn", walImage(2)[:len(walImage(2))-3])
}
