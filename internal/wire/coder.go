package wire

import (
	"errors"
	"fmt"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Coder walks the fields of a wire structure. It is in exactly one of three
// modes — sizing, encoding or decoding — and each leaf method does that
// mode's thing to the field it is pointed at: adds its encoded length,
// appends it, or reads it into place. A structure therefore lists its fields
// once, in wire order, in one walk method:
//
//	func (m *alIndexMsg) walk(c *wire.Coder) { c.Tuple(&m.T, nil); c.String(&m.Attr); c.Int(&m.Replica) }
//
// and its size, its encoding and its decoding all run that walk, so the three
// cannot disagree.
//
// Sizing and encoding only read the fields: messages under way share queries,
// rewrite targets and stored notifications, and parallel cells size them
// concurrently. Decoding keeps the first failure: from then on every leaf is
// a no-op and Count reads as 0, so a walk needs no error check per field and
// a failed decode runs out instead of spinning. What a failed walk left
// behind is garbage; callers use it only after Sync (or Err) returned nil.
//
// The zero Coder sizes.
type Coder struct {
	mode coderMode
	n    int    // sizing: the length so far
	w    Buffer // encoding
	r    Reader // decoding
	err  error

	// What decoding resolves input against: Catalog holds the schemas tuples
	// reuse and queries are re-parsed with; Memo, required to decode a query
	// or an interned string, remembers what earlier input built; a decoder
	// of one-off input (a hand-off, a snapshot) swaps in a fresh one for the
	// duration.
	Catalog *relation.Catalog
	Memo    *Memo

	// Prev is what the message before this one in its batch carries (zero: it
	// carries nothing, or this message leads its frame or travels alone), and
	// what this one says again only where it differs: Tuple, Key and Input.
	Prev   Carried
	shared int // sizing: the bytes that were Prev's to say, left out of n
}

// Carried is what a message says that the message behind it in its batch need
// not say again: its tuple, or its query key and the input it is addressed
// to. A Tuple(…, nil) equal to Tuple is an empty relation name — no schema has
// one — and decodes to Tuple itself; a Key equal to Key is an empty key —
// Key(q) is node#n, never empty — and the Input after it is the length of the
// prefix it shares with Input, then the rest.
type Carried struct {
	Tuple *relation.Tuple
	Key   string
	Input string
}

type coderMode uint8

const (
	sizing coderMode = iota
	encoding
	decoding
)

// Encoder returns a Coder that appends to what w holds; Flush ends the walk.
// The Coder works on its own copy of the Buffer, and of the Reader below:
// pointing at the caller's would move it to the heap with everything else a
// Coder refers to, an allocation per message for a caller that declares one
// per message.
func Encoder(w *Buffer) Coder { return Coder{mode: encoding, w: *w} }

// Flush ends an encoding walk: w takes what the walk appended, and Flush
// returns the walk's failure.
func (c *Coder) Flush(w *Buffer) error {
	*w = c.w
	return c.err
}

// Decoder returns a Coder that reads on from where r stands; Sync ends the
// walk.
func Decoder(r *Reader, catalog *relation.Catalog, memo *Memo) Coder {
	return Coder{mode: decoding, r: *r, Catalog: catalog, Memo: memo}
}

// Sync ends a decoding walk: r moves past what the walk read, and Sync
// returns the walk's failure.
func (c *Coder) Sync(r *Reader) error {
	*r = c.r
	return c.err
}

// Decoding reports whether the walk fills the fields in, for the steps only
// that direction has: making a slice, parsing text, sharing a neighbour's
// value.
func (c *Coder) Decoding() bool { return c.mode == decoding }

// AtEnd reports whether a decoding walk has read all its input: the writer
// was an earlier build, which stopped here. Sizing and encoding go on.
func (c *Coder) AtEnd() bool { return c.mode == decoding && c.err == nil && c.r.Remaining() == 0 }

// Size returns the length a sizing walk has added up.
func (c *Coder) Size() int { return c.n }

// Shared returns how many bytes longer than Size the structure is with no
// Prev to lean on.
func (c *Coder) Shared() int { return c.shared }

// Err returns the walk's first failure.
func (c *Coder) Err() error { return c.err }

// Fail records err unless an earlier failure stands.
func (c *Coder) Fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Uvarint walks an unsigned varint.
func (c *Coder) Uvarint(v *uint64) {
	switch c.mode {
	case sizing:
		c.n += SizeUvarint(*v)
	case encoding:
		c.w.PutUvarint(*v)
	case decoding:
		if c.err == nil {
			*v, c.err = c.r.Uvarint()
		}
	}
}

// Int walks a non-negative int as an unsigned varint.
func (c *Coder) Int(v *int) {
	u := uint64(*v)
	c.Uvarint(&u)
	if c.mode == decoding {
		*v = int(u)
	}
}

// Bool walks a bool as the unsigned varint 0 or 1; any other value reads as
// true.
func (c *Coder) Bool(v *bool) {
	var u uint64
	if *v {
		u = 1
	}
	c.Uvarint(&u)
	if c.mode == decoding {
		*v = u != 0
	}
}

// Tag walks the one-byte type tag that leads a message or record. Sizing and
// encoding take t; decoding returns the input's tag, 0 — no tag — after a
// failure.
func (c *Coder) Tag(t byte) byte {
	u := uint64(t)
	c.Uvarint(&u)
	return byte(u)
}

// Varint walks a signed varint.
func (c *Coder) Varint(v *int64) {
	switch c.mode {
	case sizing:
		c.n += SizeVarint(*v)
	case encoding:
		c.w.PutVarint(*v)
	case decoding:
		if c.err == nil {
			*v, c.err = c.r.Varint()
		}
	}
}

// String walks a length-prefixed string.
func (c *Coder) String(s *string) {
	switch c.mode {
	case sizing:
		c.n += SizeString(*s)
	case encoding:
		c.w.PutString(*s)
	case decoding:
		if c.err == nil {
			*s, c.err = c.r.String()
		}
	}
}

// Interned walks a string that recurs across messages — an identity, a key:
// decoding returns Memo's copy of one read before instead of another
// allocation. The bytes are String's.
func (c *Coder) Interned(s *string) {
	if c.mode != decoding {
		c.String(s)
	} else if c.err == nil {
		*s, c.err = c.Memo.String(&c.r)
	}
}

// Bytes walks a length-prefixed byte slice. A decoded slice aliases the
// input, like Reader.Bytes.
func (c *Coder) Bytes(b *[]byte) {
	switch c.mode {
	case sizing:
		c.n += SizeUvarint(uint64(len(*b))) + len(*b)
	case encoding:
		c.w.PutBytes(*b)
	case decoding:
		if c.err == nil {
			*b, c.err = c.r.Bytes()
		}
	}
}

// Value walks one attribute value.
func (c *Coder) Value(v *relation.Value) {
	switch c.mode {
	case sizing:
		c.n += SizeValue(*v)
	case encoding:
		c.w.PutValue(*v)
	case decoding:
		if c.err == nil {
			*v, c.err = c.r.Value()
		}
	}
}

// Tuple walks a tuple whose receiver expects shape of it (its query's projection;
// nil: none): its names stay home where shape, else Catalog, holds them (held),
// and with no shape the whole tuple does where it is Prev. A tuple with more
// attributes than shape goes as its projection onto shape, which is what its
// receiver reads: a sender holds the tuple, never a projected copy of it, and
// the receiver decodes the projection.
func (c *Coder) Tuple(t **relation.Tuple, shape *relation.Schema) {
	if c.mode == decoding || shape == nil || held((*t).Schema(), shape) || !Projects(*t, shape) {
		c.tuple(t, shape, false)
	} else if c.mode == sizing {
		c.n += sizeProjection(*t, shape)
	} else {
		encodeProjection(&c.w, *t, shape)
	}
}

// NamedTuple walks a tuple with the names of its attributes, always: for a
// reader that holds no schema to resolve it against, a WAL record's.
func (c *Coder) NamedTuple(t **relation.Tuple) { c.tuple(t, nil, true) }

func (c *Coder) tuple(t **relation.Tuple, shape *relation.Schema, named bool) {
	prev := c.Prev.Tuple
	if shape != nil || named {
		prev = nil
	}
	// Equal: pointers first, then values — a tuple that reached this node in two
	// deliveries is one pointer in the simulator and two behind a socket.
	repeats := c.mode != decoding && prev != nil && (*t).Equal(prev)
	switch c.mode {
	case sizing:
		n := SizeTuple(*t, named || !held((*t).Schema(), shape))
		if repeats {
			c.shared += n - 1
			n = 1
		}
		c.n += n
	case encoding:
		if repeats {
			c.w.PutString("")
		} else {
			EncodeTuple(&c.w, *t, named || !held((*t).Schema(), shape))
		}
	case decoding:
		switch {
		case c.err != nil:
		case c.r.Remaining() == 0 || c.r.b[c.r.off] != 0:
			*t, c.err = DecodeTuple(&c.r, c.Catalog, shape)
		case prev == nil:
			c.err = errors.New("wire: a tuple repeats a predecessor it does not have")
		default:
			c.r.off++
			*t = prev
		}
	}
}

// Key walks a query key and reports whether it is Prev.Key, said as "": the
// message then walks its input with Input(…, true). An empty key with no
// Prev.Key to stand for fails the walk.
func (c *Coder) Key(k *string) bool {
	if c.mode == decoding {
		c.String(k)
		switch {
		case c.err != nil || *k != "":
			return false
		case c.Prev.Key == "":
			c.err = errors.New("wire: a key repeats a predecessor it does not have")
			return false
		}
		*k = c.Prev.Key
		return true
	}
	keyed, said := *k != "" && *k == c.Prev.Key, *k
	if keyed {
		said = ""
		if c.mode == sizing {
			c.shared += SizeString(*k) - 1
		}
	}
	c.String(&said)
	return keyed
}

// Input walks the input a message is addressed to: behind its own key (keyed,
// Key's answer) as the length of the prefix it shares with Prev.Input, then
// the rest, else as a String. A prefix longer than Prev.Input fails the walk.
func (c *Coder) Input(s *string, keyed bool) {
	if !keyed {
		c.String(s)
		return
	}
	var n uint64
	var rest string
	if c.mode != decoding {
		for int(n) < len(*s) && int(n) < len(c.Prev.Input) && (*s)[n] == c.Prev.Input[n] {
			n++
		}
		rest = (*s)[n:]
	}
	c.Uvarint(&n)
	if c.mode == decoding && c.err == nil && n > uint64(len(c.Prev.Input)) {
		c.err = fmt.Errorf("wire: an input shares %d bytes with a predecessor's of %d", n, len(c.Prev.Input))
	}
	c.String(&rest)
	switch {
	case c.mode == sizing:
		c.shared += SizeString(*s) - SizeUvarint(n) - SizeString(rest)
	case c.mode == decoding && c.err == nil:
		*s = c.Prev.Input[:n] + rest
	}
}

// Query walks a query after one of text prevText — the element before it in a
// list, "" where there is none (EncodeQuery, SizeQuery): its own text, when
// the same, is not sent again. Decoding resolves the query through Memo
// (DecodeQuery).
func (c *Coder) Query(q **query.Query, prevText string) {
	switch c.mode {
	case sizing:
		c.n += SizeQuery(*q, prevText)
	case encoding:
		EncodeQuery(&c.w, *q, prevText)
	case decoding:
		if c.err == nil {
			*q, c.err = DecodeQuery(&c.r, c.Catalog, c.Memo, prevText)
		}
	}
}

// Count walks the element count n that leads a list and returns the count to
// walk: n itself, or decoding, the input's. Every element occupies at least
// one byte, so a count above the bytes remaining is malformed or hostile
// input, failed here before it can size an allocation; after a failure the
// count is 0.
func (c *Coder) Count(n int) int {
	u := uint64(n)
	c.Uvarint(&u)
	if c.mode != decoding {
		return n
	}
	if c.err == nil && u > uint64(c.r.Remaining()) {
		c.err = fmt.Errorf("wire: element count %d exceeds %d remaining bytes", u, c.r.Remaining())
	}
	if c.err != nil {
		return 0
	}
	return int(u)
}

// Slice walks the count of the list *s and, decoding, makes *s that long;
// the caller then walks the elements in place.
func Slice[T any](c *Coder, s *[]T) {
	n := c.Count(len(*s))
	if c.mode == decoding {
		*s = make([]T, n)
	}
}

// Strings walks a counted list of strings.
func (c *Coder) Strings(s *[]string) {
	Slice(c, s)
	for i := range *s {
		c.String(&(*s)[i])
	}
}

// Tuples walks a counted list of tuples, each decoded against Catalog alone.
func (c *Coder) Tuples(ts *[]*relation.Tuple) {
	Slice(c, ts)
	for i := range *ts {
		c.Tuple(&(*ts)[i], nil)
	}
}

// Queries walks a counted list of queries, each after the one before it.
func (c *Coder) Queries(qs *[]*query.Query) {
	Slice(c, qs)
	prevText := ""
	for i := range *qs {
		if c.Query(&(*qs)[i], prevText); c.err == nil {
			prevText = (*qs)[i].Text()
		}
	}
}
