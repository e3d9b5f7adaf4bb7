package engine

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"cqjoin/internal/wire"
)

// TestWireGolden pins the wire format across commits: testdata/wire.golden
// holds the encoding of every codecFixtures message, one "type hex" line
// each, in fixture order. The encoder must still produce those bytes, and
// the bytes must still decode to a message that encodes back to them — so a
// reordered field, a changed field type or a renumbered tag fails here. To
// add a message kind, append its fixture and the line this test prints.
//
// testdata/wire-pr19.golden is the same fixtures as the build before the
// say-it-once layout (PR 19) encoded them: attribute names in every tuple,
// eight-byte numbers, every rewrite and notification in full;
// testdata/wire-pr20.golden as the last build (PR 20) whose snapshot meta ends
// with the hot-key counters did. Nothing writes those layouts any more, and
// peers, WAL delivery records and snapshots still hold them, so they are only
// ever read: each line must decode to its fixture, and to a message that
// encodes as today's line. Their lines pair with the fixtures by position; a
// fixture appended later has none there.
func TestWireGolden(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	lines := goldenLines(t, "testdata/wire.golden")
	parents := [][]string{goldenLines(t, "testdata/wire-pr19.golden"), goldenLines(t, "testdata/wire-pr20.golden")}
	if len(lines) != len(msgs) {
		t.Errorf("%d golden lines for %d fixtures", len(lines), len(msgs))
	}
	for i, msg := range msgs {
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		got := fmt.Sprintf("%T %x", msg, w.Bytes())
		if i >= len(lines) || got != lines[i] {
			t.Errorf("line %d: the encoding is now\n%s", i+1, got)
			continue
		}
		layouts := []string{lines[i]}
		for _, parent := range parents {
			if i < len(parent) {
				layouts = append(layouts, parent[i])
			}
		}
		for _, line := range layouts {
			name, enc, _ := strings.Cut(line, " ")
			golden, err := hex.DecodeString(enc)
			if err != nil || name != fmt.Sprintf("%T", msg) {
				t.Fatalf("line %d: a %s, %v; the fixture is a %T", i+1, name, err, msg)
			}
			back, err := DecodeMessage(wire.NewReader(golden), catalog)
			if err != nil {
				t.Errorf("%T: the golden bytes no longer decode: %v\n%x", msg, err, golden)
				continue
			}
			assertSemanticEqual(t, msg, back)
			var again wire.Buffer
			if err := EncodeMessage(&again, back); err != nil || !bytes.Equal(again.Bytes(), w.Bytes()) {
				t.Errorf("%T: the golden bytes\n%x\ndecode to a message that encodes as (%v)\n%x", msg, golden, err, again.Bytes())
			}
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
