package durable

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"cqjoin/internal/wire"
)

// TestRecordGolden pins the WAL record format across commits, the way the
// engine's TestWireGolden pins the messages: testdata/records.golden holds
// the encoding of every seedRecords record, one "type hex" line each. The
// encoder must still produce those bytes and they must decode to a record
// that encodes back to them, so a wal.log an earlier build wrote still
// replays.
func TestRecordGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/records.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	recs := seedRecords()
	if len(lines) != len(recs) {
		t.Errorf("%d golden lines for %d seed records", len(lines), len(recs))
	}
	for i, rec := range recs {
		var w wire.Buffer
		if err := encodeRecord(&w, rec); err != nil {
			t.Fatalf("%T: encode: %v", rec, err)
		}
		got := fmt.Sprintf("%T %x", rec, w.Bytes())
		if i >= len(lines) || got != lines[i] {
			t.Errorf("line %d: the encoding is now\n%s", i+1, got)
			continue
		}
		golden, err := hex.DecodeString(strings.Fields(lines[i])[1])
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		assertReencodes(t, fmt.Sprintf("line %d", i+1), golden)
	}
}

// The committed FuzzRecordCodec seeds were written by earlier builds: each
// must still decode, and to a record that encodes back to the same bytes.
func TestCommittedRecordSeedsReencode(t *testing.T) {
	paths, err := filepath.Glob("testdata/fuzz/FuzzRecordCodec/seed-*")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no committed seeds (%v)", err)
	}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// "go test fuzz v1\n[]byte(<quoted>)\n"
		_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n[]byte(")
		if !ok {
			t.Fatalf("%s: not a one-[]byte corpus entry", path)
		}
		data, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		assertReencodes(t, path, []byte(data))
	}
}

func assertReencodes(t *testing.T, what string, data []byte) {
	t.Helper()
	var r wire.Reader
	r.Reset(data)
	rec, err := decodeRecord(&r)
	if err != nil || r.Remaining() != 0 {
		t.Errorf("%s: no longer decodes (%v, %d bytes left)", what, err, r.Remaining())
		return
	}
	var w wire.Buffer
	if err := encodeRecord(&w, rec); err != nil || !bytes.Equal(w.Bytes(), data) {
		t.Errorf("%s: decodes to a %T that encodes as (%v)\n%x", what, rec, err, w.Bytes())
	}
}

// Every record tag has a seed record whose encoding leads with it and decodes
// to the seed's own type, and — a decoder with a sticky error could swallow a
// failure and hand back zero values — no strict prefix of it decodes.
func TestEveryRecordTagRoundTripsAndNoPrefixDecodes(t *testing.T) {
	seen := map[byte]bool{}
	for _, rec := range seedRecords() {
		var w wire.Buffer
		if err := encodeRecord(&w, rec); err != nil {
			t.Fatalf("%T: encode: %v", rec, err)
		}
		full := w.Bytes()
		seen[full[0]] = true
		var r wire.Reader
		r.Reset(full)
		if got, err := decodeRecord(&r); err != nil || reflect.TypeOf(got) != reflect.TypeOf(rec) {
			t.Fatalf("tag %d: a %T decoded as %T (%v)", full[0], rec, got, err)
		}
		for cut := 0; cut < len(full); cut++ {
			r.Reset(full[:cut])
			if _, err := decodeRecord(&r); err == nil {
				t.Fatalf("%T: truncation at %d of %d accepted", rec, cut, len(full))
			}
		}
	}
	for tag := tagSubscribe; tag <= tagView; tag++ {
		if !seen[tag] {
			t.Errorf("record tag %d has no seed record", tag)
		}
	}
	if len(seen) != int(tagView) {
		t.Errorf("%d record tags in use, the constants declare %d", len(seen), tagView)
	}
}
