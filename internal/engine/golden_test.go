package engine

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// retiredTags are the blanks in codec.go's tag block, on the same lines of
// every golden: the naive baselines' query, tuple and probe, a chain's query
// and join, the hot-key frames' layouts that said their promotion's epoch,
// and the hot-key layer's migrate, recall and hand-off.
var retiredTags = []int{11, 12, 13, 14, 15, 17, 18, 19, 20, 21}

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
// with the hot-key counters did; testdata/wire-pr32.golden as the last build
// (PR 32) whose publishers never asked a rewriter whether a query reads an
// attribute, and whose hand-offs carry no grants; testdata/wire-pr34.golden as
// the last build (PR 34) whose queries said their subscriber and whose
// rewrites said their wants and Key(q') where the receiver derives them;
// testdata/wire-pr36.golden as the last build whose queries said their SQL
// text, not its token form; testdata/wire-pr38.golden as the last build whose
// notifications said their key in full, their address and their delivery time;
// testdata/wire-pr45.golden as the last build whose chains had messages and
// hand-off sections of their own, read into the one query table and VQ;
// testdata/wire-pr48.golden as the last build whose hot-key frames said their
// promotion's epoch, under tags 17 and 18; testdata/wire-pr52.golden as the
// last build whose value-level hand-off sections said their input, not its
// identifier.
// Nothing writes those layouts any more, and
// peers, WAL delivery records and snapshots still hold them, so they are only
// ever read: each line must decode to its fixture, and to a message that
// encodes as today's line. Their lines pair with the fixtures by position; a
// fixture appended later has none there.
//
// After the fixtures' lines wire.golden holds the forms a message takes behind
// another in a batch frame, "type@line after type@line hex": the fixture of
// the first line as it encodes behind the fixture of the second, which carries
// what the first leaves out — the same tuple, or the same query key — one such
// line for every kind that leans on its predecessor so. Those bytes must be
// what the encoder writes behind that predecessor, decode behind it to the
// fixture, and decode behind nothing, or behind a message that carries
// nothing, to an error.
//
// Lines 11 to 15 and 17 to 21 of every golden are the naive baselines' query,
// tuple and probe — retired when Section 4.1's schemes were no longer built —
// a chain's query and join — retired when a chain became a query and its
// stages joins — a hot-join and a hot-vl-index that said their promotion's
// epoch, retired when a promotion became its base's own state, a hot-migrate
// and a hot-handoff, retired when a promotion came to move only the rewrite
// set, and a hot-recall, which went with hot-key demotion: their tags stay
// reserved. Each line is kept to the byte, has no fixture, and must fail to
// decode as an unknown tag — a build that gave the tag to another kind would
// read an old peer's message as that. An "after" line of a retired kind must
// likewise fail behind its predecessor.
func TestWireGolden(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	for _, tag := range retiredTags {
		msgs = slices.Insert(msgs, tag-1, chord.Message(nil)) // fixtures by line
	}
	lines, behind := splitGolden(goldenLines(t, "testdata/wire.golden"))
	checkBehindLines(t, catalog, msgs, behind)
	var parents [][]string
	for _, pr := range []int{19, 20, 32, 34, 36, 38, 45, 48, 52} {
		fixtures, _ := splitGolden(goldenLines(t, fmt.Sprintf("testdata/wire-pr%d.golden", pr)))
		parents = append(parents, fixtures)
	}
	if len(lines) != len(msgs) {
		t.Errorf("%d golden lines for %d fixtures", len(lines), len(msgs))
	}
	for i, msg := range msgs {
		if msg == nil {
			for _, golden := range append(parents, lines) {
				_, enc, _ := strings.Cut(golden[i], " ")
				raw, err := hex.DecodeString(enc)
				if err != nil || len(raw) == 0 || int(raw[0]) != i+1 {
					t.Fatalf("line %d: %q (%v) is not the retired kind's, tag %d", i+1, golden[i], err, i+1)
				}
				if back, err := DecodeMessage(wire.NewReader(raw), catalog); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown message tag %d", i+1)) {
					t.Errorf("line %d: the retired kind's bytes decode to %+v (%v), want an unknown tag", i+1, back, err)
				}
			}
			continue
		}
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatalf("%T: encode: %v", msg, err)
		}
		got := fmt.Sprintf("%s %x", typeLabel(msg), w.Bytes())
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
			if err != nil || name != typeLabel(msg) {
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

// checkBehindLines holds wire.golden's "after" lines to the fixtures.
func checkBehindLines(t *testing.T, catalog *relation.Catalog, msgs []chord.Message, behind []string) {
	t.Helper()
	codec := NewWireCodec(catalog)
	covered := map[string]bool{}
	for _, line := range behind {
		var what, after string
		var at, prevAt int
		var golden []byte
		if _, err := fmt.Sscanf(strings.NewReplacer("@", " ").Replace(line), "%s %d after %s %d %x", &what, &at, &after, &prevAt, &golden); err != nil ||
			at < 1 || at > len(msgs) || prevAt < 1 || prevAt > len(msgs) {
			t.Fatalf("malformed line %q: %v", line, err)
		}
		msg, prev := msgs[at-1], msgs[prevAt-1]
		if msg == nil && prev != nil {
			if back, err := codec.DecodeAfter(wire.NewReader(golden), prev); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown message tag %d", at)) {
				t.Errorf("%q: the retired kind's bytes decode to %+v (%v), want an unknown tag", line, back, err)
			}
			continue
		}
		if what != typeLabel(msg) || after != typeLabel(prev) {
			t.Fatalf("%q: lines %d and %d hold a %T and a %T", line, at, prevAt, msg, prev)
		}
		covered[what] = true
		var w wire.Buffer
		if err := codec.EncodeAfter(&w, msg, prev); err != nil || !bytes.Equal(w.Bytes(), golden) {
			t.Errorf("%s@%d after %s@%d: the encoding is now (%v)\n%x", what, at, after, prevAt, err, w.Bytes())
			continue
		}
		if alone := encodedLen(msg); len(golden) >= alone {
			t.Errorf("%q: %d bytes behind its predecessor, %d alone: nothing was left to it", line, len(golden), alone)
		}
		back, err := codec.DecodeAfter(wire.NewReader(golden), prev)
		if err != nil {
			t.Errorf("%q: the golden bytes no longer decode behind their predecessor: %v", line, err)
			continue
		}
		assertSemanticEqual(t, msg, back)
		if got, lent := carried(back), carried(prev); got.Tuple != lent.Tuple || got.Key != lent.Key {
			t.Errorf("%q: the decoded message does not share what its predecessor carries", line)
		}
		for _, orphanOf := range []chord.Message{nil, msgs[3]} { // no predecessor; a join, which carries nothing
			if got, err := codec.DecodeAfter(wire.NewReader(golden), orphanOf); err == nil {
				t.Errorf("%q: decoded behind %T to %+v", line, orphanOf, got)
			}
		}
	}
	for i, msg := range msgs {
		if what := typeLabel(msg); carried(msg) != (wire.Carried{}) && !covered[what] {
			covered[what] = true
			t.Errorf("%s leans on its predecessor and has no \"after\" line", what)
			for j, prev := range msgs {
				if _, shared := sizeAfter(msg, prev); j != i && shared > 0 {
					var w wire.Buffer
					_ = codec.EncodeAfter(&w, msg, prev)
					t.Logf("append\n%s@%d after %s@%d %x", what, i+1, typeLabel(prev), j+1, w.Bytes())
					break
				}
			}
		}
	}
}

// splitGolden cuts a golden's lines into its fixtures' and its "after" lines.
func splitGolden(lines []string) (fixtures, behind []string) {
	if i := slices.IndexFunc(lines, func(l string) bool { return strings.Contains(l, " after ") }); i >= 0 {
		return lines[:i], lines[i:]
	}
	return lines, nil
}

// typeLabel names a fixture's type in a golden line: without the star of a
// message sent as a pointer (an al-index), so the lines predate the choice.
func typeLabel(msg chord.Message) string { return strings.TrimPrefix(fmt.Sprintf("%T", msg), "*") }

func goldenLines(t testing.TB, path string) []string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(string(raw)), "\n")
}
