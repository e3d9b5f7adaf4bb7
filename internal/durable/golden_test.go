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
//
// testdata/records-pr19.golden is the same records as the build before the
// say-it-once layout wrote them (a published tuple's numbers in eight bytes
// each). It is only ever read: each line must decode, and to a record that
// encodes as today's line.
func TestRecordGolden(t *testing.T) {
	recs := seedRecords()
	lines := goldenLines(t, "testdata/records.golden")
	parent := goldenLines(t, "testdata/records-pr19.golden")
	if len(lines) != len(recs) || len(parent) != len(recs) {
		t.Errorf("%d golden lines and %d of the parent's for %d seed records", len(lines), len(parent), len(recs))
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
		assertReencodes(t, fmt.Sprintf("line %d", i+1), w.Bytes(), w.Bytes())
		if i < len(parent) {
			name, enc, _ := strings.Cut(parent[i], " ")
			old, err := hex.DecodeString(enc)
			if err != nil || name != fmt.Sprintf("%T", rec) {
				t.Fatalf("parent line %d: a %s, %v; the seed record is a %T", i+1, name, err, rec)
			}
			assertReencodes(t, fmt.Sprintf("parent line %d", i+1), old, w.Bytes())
		}
	}
}

func goldenLines(t *testing.T, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(raw)), "\n")
}

// The committed FuzzRecordCodec seeds (TestWriteSeedCorpus) must still
// decode, and to a record that encodes back to the same bytes. pr19-publish,
// beside them, is seed-3 as the build before the say-it-once layout wrote it;
// TestRecordGolden reads that layout, and the fuzzer starts from it too.
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
		assertReencodes(t, path, []byte(data), []byte(data))
	}
}

// assertReencodes checks that data decodes, whole, to a record that encodes
// as want.
func assertReencodes(t *testing.T, what string, data, want []byte) {
	t.Helper()
	var r wire.Reader
	r.Reset(data)
	rec, err := decodeRecord(&r)
	if err != nil || r.Remaining() != 0 {
		t.Errorf("%s: no longer decodes (%v, %d bytes left)", what, err, r.Remaining())
		return
	}
	var w wire.Buffer
	if err := encodeRecord(&w, rec); err != nil || !bytes.Equal(w.Bytes(), want) {
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
	for _, data := range hostileRecords(t) {
		var r wire.Reader
		r.Reset(data)
		if rec, err := decodeRecord(&r); err == nil {
			t.Errorf("a flag of 2 decoded to %+v", rec)
		}
	}
	// Tag 4 logged a batched publish (no daemon ever wrote one) and is
	// reserved: such a record is refused, and a log holding one fails Open.
	const tagReserved byte = 4
	for tag := tagSubscribe; tag <= tagView; tag++ {
		if !seen[tag] && tag != tagReserved {
			t.Errorf("record tag %d has no seed record", tag)
		}
	}
	if seen[tagReserved] || len(seen) != int(tagView)-1 {
		t.Errorf("tags in use %v, want every tag up to %d but the reserved %d", seen, tagView, tagReserved)
	}
	// The batch record line records.golden held while the tag was live.
	batch, err := hex.DecodeString("04020570656572310570656572320202533104026130026131026132026133014044000000000000014026000000000000013ff0000000000000014018000000000000000253330402613002613102613202613301403a00000000000001400000000000000001408e30000000000001408cd800000000000008")
	if err != nil {
		t.Fatal(err)
	}
	const want = "unknown record tag 4"
	var r wire.Reader
	r.Reset(batch)
	if _, err := decodeRecord(&r); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("decoding a tag-4 record: %v, want %q", err, want)
	}
	dir := t.TempDir()
	var view wire.Buffer
	if err := encodeRecord(&view, viewRec{View: &wire.MemberView{Version: 1}}); err != nil {
		t.Fatal(err)
	}
	log := appendFrame(appendFrame(nil, 1, view.Bytes()), 2, batch)
	if err := os.WriteFile(filepath.Join(dir, walName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, nil, Options{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Open on a log holding a tag-4 frame: %v, want %q", err, want)
	}
}
