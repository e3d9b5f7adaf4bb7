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
func TestWireGolden(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	raw, err := os.ReadFile("testdata/wire.golden")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
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
		golden, err := hex.DecodeString(strings.Fields(lines[i])[1])
		if err != nil {
			t.Fatalf("line %d: %v", i+1, err)
		}
		back, err := DecodeMessage(wire.NewReader(golden), catalog)
		if err != nil {
			t.Errorf("%T: the golden bytes no longer decode: %v", msg, err)
			continue
		}
		var again wire.Buffer
		if err := EncodeMessage(&again, back); err != nil || !bytes.Equal(again.Bytes(), golden) {
			t.Errorf("%T: the golden bytes decode to a message that encodes as (%v)\n%x", msg, err, again.Bytes())
		}
	}
}
