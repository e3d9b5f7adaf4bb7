package wire

import (
	"errors"
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
	want.PutValue(relation.N(3.25))
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
	full := SizeTuple(prev, false)
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
		sz := Coder{Prev: prev}
		tc.walk(&sz, &in)
		var w Buffer
		enc := Encoder(&w)
		enc.Prev = prev
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
		dec.Prev = prev
		tc.walk(&dec, &out)
		if err := dec.Sync(r); err != nil || !out.Equal(tc.tuple) || (tc.shared > 0) != (out == prev) || r.Remaining() != 0 {
			t.Fatalf("%s: decoded %v (%v), %d bytes left", tc.name, out, err, r.Remaining())
		}
		// The lone zero byte in this tuple's place.
		r = NewReader([]byte{0})
		dec = Decoder(r, catalog, new(Memo))
		dec.Prev = prev
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
