package wire

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"

	"cqjoin/internal/relation"
)

// sample has one field per kind of leaf that needs no catalog.
type sample struct {
	U     uint64
	I     int
	B     bool
	V     int64
	S     string
	Raw   []byte
	Val   relation.Value
	Names []string
	Nums  []int64
}

func (m *sample) walk(c *Coder) {
	c.Uvarint(&m.U)
	c.Int(&m.I)
	c.Bool(&m.B)
	c.Varint(&m.V)
	c.String(&m.S)
	c.Bytes(&m.Raw)
	c.Value(&m.Val)
	c.Strings(&m.Names)
	Slice(c, &m.Nums)
	for i := range m.Nums {
		c.Varint(&m.Nums[i])
	}
}

// One walk, three modes: the size is the encoding's length, the encoding is
// what the Put calls would write, and decoding it rebuilds the value.
func TestCoderModesAgree(t *testing.T) {
	in := sample{U: 300, I: 7, B: true, V: -42, S: "hello", Raw: []byte{1, 2, 3},
		Val: relation.N(3.25), Names: []string{"a", "bc"}, Nums: []int64{-1, 1 << 40}}
	var w Buffer
	enc := Encoder(&w)
	in.walk(&enc)
	var sz Coder
	in.walk(&sz)
	if err := enc.Flush(&w); err != nil || sz.Err() != nil || sz.Size() != w.Len() {
		t.Fatalf("size %d (%v), encoding %d bytes (%v)", sz.Size(), sz.Err(), w.Len(), err)
	}

	var want Buffer
	want.PutUvarint(300)
	want.PutUvarint(7)
	want.PutUvarint(1)
	want.PutVarint(-42)
	want.PutString("hello")
	want.PutBytes([]byte{1, 2, 3})
	want.PutRaw([]byte{kindNumber})
	want.PutUint64(math.Float64bits(3.25))
	want.PutUvarint(2)
	want.PutString("a")
	want.PutString("bc")
	want.PutUvarint(2)
	want.PutVarint(-1)
	want.PutVarint(1 << 40)
	if string(w.Bytes()) != string(want.Bytes()) {
		t.Fatalf("walk encoded %x, the Put calls %x", w.Bytes(), want.Bytes())
	}

	r := NewReader(w.Bytes())
	dec := Decoder(r, nil, nil)
	var out sample
	out.walk(&dec)
	if err := dec.Sync(r); err != nil || r.Remaining() != 0 || !reflect.DeepEqual(out, in) {
		t.Fatalf("decoded %+v (%v, %d bytes left), want %+v", out, err, r.Remaining(), in)
	}
}

// The first failure sticks: later leaves leave their scalars alone, a list
// and Count read as empty, Err keeps the first error, and the reader stays
// where it failed.
func TestCoderFirstFailureSticks(t *testing.T) {
	var w Buffer
	w.PutUvarint(5)
	w.PutUvarint(9) // a string of nine bytes...
	w.PutRaw([]byte("abc"))
	r := NewReader(w.Bytes())
	c := Decoder(r, nil, nil)
	var u uint64
	c.Uvarint(&u)
	if u != 5 || c.Err() != nil {
		t.Fatalf("Uvarint = %d, %v", u, c.Err())
	}
	var s string
	c.String(&s) // ...of which three arrived
	first := c.Err()
	if first == nil {
		t.Fatal("a truncated string was accepted")
	}
	var at Reader
	_ = c.Sync(&at)
	v, names := int64(-7), []string{"kept"}
	c.Varint(&v)
	c.Strings(&names)
	if n := c.Count(3); n != 0 {
		t.Fatalf("Count after a failure = %d, want 0", n)
	}
	if tag := c.Tag(0); tag != 0 {
		t.Fatalf("Tag after a failure = %d, want 0", tag)
	}
	c.Fail(errors.New("a later failure"))
	if v != -7 || len(names) != 0 || c.Sync(r) != first || r.Remaining() != at.Remaining() {
		t.Fatalf("after the failure: v=%d names=%v err=%v, %d bytes left (failed with %d left, %v)", v, names, c.Err(), r.Remaining(), at.Remaining(), first)
	}
}

// Prev, three modes: a Tuple(…, nil) equal to it — the same pointer, or a copy
// — is one byte, Shared counts what that spared, and it decodes to Prev itself;
// another tuple, a shaped one and a named one are written as if Prev were not
// there; and the byte with no Prev to stand for, or where a shaped or named
// tuple belongs, fails the walk.
func TestCoderPrevTuple(t *testing.T) {
	schema := relation.MustSchema("R", "A", "B")
	catalog := relation.MustCatalog(schema)
	prev := relation.MustTuple(schema, relation.N(1), relation.S("x")).WithPubT(7)
	twin := relation.MustTuple(schema, relation.N(1), relation.S("x")).WithPubT(7)
	other := relation.MustTuple(schema, relation.N(2), relation.S("x")).WithPubT(7)
	full := len(encodeTuple(t, prev, nil, false))
	for _, tc := range []struct {
		name   string
		walk   func(c *Coder, t **relation.Tuple)
		tuple  *relation.Tuple
		shared int
	}{
		{"same pointer", func(c *Coder, t **relation.Tuple) { c.Tuple(t, nil) }, prev, full - 1},
		{"equal copy", func(c *Coder, t **relation.Tuple) { c.Tuple(t, nil) }, twin, full - 1},
		{"another tuple", func(c *Coder, t **relation.Tuple) { c.Tuple(t, nil) }, other, 0},
		{"shaped", func(c *Coder, t **relation.Tuple) { c.Tuple(t, schema) }, prev, 0},
		{"named", func(c *Coder, t **relation.Tuple) { c.NamedTuple(t) }, prev, 0},
	} {
		in := tc.tuple
		sz := Coder{Prev: Carried{Tuple: prev}}
		tc.walk(&sz, &in)
		var w Buffer
		enc := Encoder(&w)
		enc.Prev = Carried{Tuple: prev}
		tc.walk(&enc, &in)
		var alone Coder
		tc.walk(&alone, &in)
		if err := enc.Flush(&w); err != nil || sz.Size() != w.Len() || sz.Shared() != tc.shared || sz.Size()+sz.Shared() != alone.Size() {
			t.Fatalf("%s: size %d, %d shared, %d alone; encoding %d bytes (%v); want %d shared", tc.name, sz.Size(), sz.Shared(), alone.Size(), w.Len(), err, tc.shared)
		}
		if (tc.shared > 0) != (w.Len() == 1 && w.Bytes()[0] == 0) {
			t.Fatalf("%s: encoded as %x", tc.name, w.Bytes())
		}
		var out *relation.Tuple
		r := NewReader(w.Bytes())
		dec := Decoder(r, catalog, new(Memo))
		dec.Prev = Carried{Tuple: prev}
		tc.walk(&dec, &out)
		if err := dec.Sync(r); err != nil || !out.Equal(tc.tuple) || (tc.shared > 0) != (out == prev) || r.Remaining() != 0 {
			t.Fatalf("%s: decoded %v (%v), %d bytes left", tc.name, out, err, r.Remaining())
		}
		// The lone zero byte in this tuple's place.
		r = NewReader([]byte{0})
		dec = Decoder(r, catalog, new(Memo))
		dec.Prev = Carried{Tuple: prev}
		tc.walk(&dec, &out)
		if err := dec.Sync(r); (err == nil) != (tc.name != "shaped" && tc.name != "named") {
			t.Fatalf("%s: an empty relation name behind a predecessor: %v", tc.name, err)
		}
		r = NewReader([]byte{0})
		dec = Decoder(r, catalog, new(Memo))
		tc.walk(&dec, &out)
		if err := dec.Sync(r); err == nil {
			t.Fatalf("%s: an empty relation name decoded with no predecessor", tc.name)
		}
	}
}

// Prev's key, three modes: a Key equal to it is one byte and the Input after
// it the length of what it shares with Prev.Input, then the rest; Shared
// counts what that spared, and the pair decodes to Prev's key and the input
// in full. Another key, or none before it, is written as if Prev were not
// there; an empty key with no Prev.Key, and a prefix past Prev.Input, fail.
func TestCoderPrevKey(t *testing.T) {
	prev := Carried{Key: "peer5#1", Input: "S+E+7"}
	walk := func(c *Coder, key, input *string) { c.Input(input, c.Key(key)) }
	for _, tc := range []struct {
		name, key, input string
		prev             Carried
		want             string // the encoding, hex
	}{
		{"same key, input's prefix", "peer5#1", "S+E+9", prev, "00040139"},
		{"same key, same input", "peer5#1", "S+E+7", prev, "000500"},
		{"same key, nothing shared", "peer5#1", "R+B", prev, "000003522b42"},
		{"another key", "peer5#2", "S+E+7", prev, "077065657235233205532b452b37"},
		{"no predecessor", "peer5#1", "S+E+7", Carried{}, "077065657235233105532b452b37"},
	} {
		key, input := tc.key, tc.input
		sz := Coder{Prev: tc.prev}
		walk(&sz, &key, &input)
		var w Buffer
		enc := Encoder(&w)
		enc.Prev = tc.prev
		walk(&enc, &key, &input)
		var alone Coder
		walk(&alone, &key, &input)
		if err := enc.Flush(&w); err != nil || sz.Size() != w.Len() || sz.Size()+sz.Shared() != alone.Size() {
			t.Fatalf("%s: size %d, %d shared, %d alone; encoding %d bytes (%v)", tc.name, sz.Size(), sz.Shared(), alone.Size(), w.Len(), err)
		}
		if got := fmt.Sprintf("%x", w.Bytes()); got != tc.want {
			t.Fatalf("%s: encoded as %s, want %s", tc.name, got, tc.want)
		}
		var outKey, outInput string
		r := NewReader(w.Bytes())
		dec := Decoder(r, nil, nil)
		dec.Prev = tc.prev
		walk(&dec, &outKey, &outInput)
		if err := dec.Sync(r); err != nil || outKey != tc.key || outInput != tc.input || r.Remaining() != 0 {
			t.Fatalf("%s: decoded %q %q (%v), %d bytes left", tc.name, outKey, outInput, err, r.Remaining())
		}
	}
	for name, forged := range map[string]struct {
		raw  []byte
		prev Carried
	}{
		"an empty key with no predecessor": {[]byte{0, 0, 0}, Carried{}},
		"an empty key behind a tuple":      {[]byte{0, 0, 0}, Carried{Tuple: relation.MustTuple(relation.MustSchema("R", "A"), relation.N(1))}},
		"a prefix past the predecessor's":  {[]byte{0, 6, 0}, prev},
	} {
		var key, input string
		r := NewReader(forged.raw)
		dec := Decoder(r, nil, nil)
		dec.Prev = forged.prev
		walk(&dec, &key, &input)
		if err := dec.Sync(r); err == nil {
			t.Errorf("%s: decoded to %q %q", name, key, input)
		}
	}
}
