package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math"

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

// Remaining returns how many bytes a decoding walk has still to read.
func (c *Coder) Remaining() int { return c.r.Remaining() }

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

// Int walks a non-negative int as an unsigned varint; decoding refuses one an
// int cannot hold.
func (c *Coder) Int(v *int) {
	u := uint64(*v)
	c.Uvarint(&u)
	if c.mode == decoding {
		if u > math.MaxInt {
			c.Fail(fmt.Errorf("wire: %d is more than an int holds", u))
		}
		*v = int(u)
	}
}

// Bool walks a bool as the unsigned varint 0 or 1; decoding refuses any other.
func (c *Coder) Bool(v *bool) {
	var u uint64
	if *v {
		u = 1
	}
	c.Uvarint(&u)
	if c.mode == decoding {
		if u > 1 {
			c.Fail(fmt.Errorf("wire: %d is no bool", u))
		}
		*v = u != 0
	}
}

// Tag walks the one-byte type tag that leads a message or record. Sizing and
// encoding take t; decoding returns the input's tag, 0 — no tag — after a
// failure, and refuses one past a byte.
func (c *Coder) Tag(t byte) byte {
	u := uint64(t)
	c.Uvarint(&u)
	if u > math.MaxUint8 {
		c.Fail(fmt.Errorf("wire: tag %d is more than a byte", u))
		return 0
	}
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

// field walks a length-prefixed field saying s then b: sizing and encoding
// take them, decoding returns what the input says, aliased like Bytes.
func (c *Coder) field(s string, b []byte) []byte {
	n := len(s) + len(b)
	switch c.mode {
	case sizing:
		c.n += SizeUvarint(uint64(n)) + n
	case encoding:
		c.w.PutUvarint(uint64(n))
		c.w.b = append(append(c.w.b, s...), b...)
	case decoding:
		var got []byte
		if c.err == nil {
			got, c.err = c.r.Bytes()
		}
		return got
	}
	return nil
}

// Value walks one attribute value: its kind, then a string, a whole number
// below 2^53 as a varint (wholeNumber), or any other number's eight bytes.
func (c *Coder) Value(v *relation.Value) {
	kind, s, i, bits := uint64(kindNumber), "", int64(0), uint64(0)
	if c.mode != decoding {
		if v.Kind() == relation.String {
			kind, s = kindString, v.Str()
		} else if whole, ok := wholeNumber(v.Num()); ok {
			kind, i = kindInt, whole
		} else {
			bits = math.Float64bits(v.Num())
		}
	}
	c.Uvarint(&kind)
	switch kind {
	case kindString:
		c.String(&s)
		if c.mode == decoding {
			*v = relation.S(s)
		}
	case kindInt:
		c.Varint(&i)
		if c.mode == decoding {
			if i <= -(1<<53) || i >= 1<<53 {
				c.Fail(fmt.Errorf("wire: integer %d is not one a number holds exactly", i))
			}
			*v = relation.N(float64(i))
		}
	case kindNumber:
		switch c.mode {
		case sizing:
			c.n += 8
		case encoding:
			c.w.PutUint64(bits)
		case decoding:
			if c.err == nil {
				bits, c.err = c.r.Uint64()
			}
			*v = relation.N(math.Float64frombits(bits))
		}
	default:
		c.Fail(fmt.Errorf("wire: unknown value kind %d", kind))
	}
}

// Tuple walks a tuple whose receiver expects shape of it (its query's projection;
// nil: none): its names stay home where shape, else Catalog, holds them (held),
// and with no shape the whole tuple does where it is Prev. A tuple with more
// attributes than shape goes as its projection onto shape, which is what its
// receiver reads: a sender holds the tuple, never a projected copy of it, and
// the receiver decodes the projection.
func (c *Coder) Tuple(t **relation.Tuple, shape *relation.Schema) { c.tuple(t, shape, false) }

// NamedTuple walks a tuple with the names of its attributes, always: for a
// reader that holds no schema to resolve it against, a WAL record's.
func (c *Coder) NamedTuple(t **relation.Tuple) { c.tuple(t, nil, true) }

// tuple walks a tuple as the empty relation name where it is Prev's — an
// unshaped, unnamed one — else in full (tupleFields).
func (c *Coder) tuple(t **relation.Tuple, shape *relation.Schema, named bool) {
	prev := c.Prev.Tuple
	if shape != nil || named {
		prev = nil
	}
	switch {
	case c.mode == decoding && c.err == nil && c.r.Remaining() > 0 && c.r.b[c.r.off] == 0:
		if prev == nil {
			c.err = errors.New("wire: a tuple repeats a predecessor it does not have")
			return
		}
		c.r.off++
		*t = prev
	// Equal: pointers first, then values — a tuple that reached this node in two
	// deliveries is one pointer in the simulator and two behind a socket.
	case c.mode != decoding && prev != nil && (*t).Equal(prev):
		if c.mode == sizing {
			at := c.n
			c.tupleFields(t, shape, named)
			c.shared += c.n - at - 1
			c.n = at
		}
		empty := ""
		c.String(&empty)
	default:
		c.tupleFields(t, shape, named)
	}
}

// tupleFields walks a tuple in full: its relation; arity 0 then the arity
// where its receiver holds the schema, else the arity then the names; its
// values; its publication time. Decoding takes the schema shape, or with no
// shape the catalog's, where the names stay home, and fails where that is
// none or another arity; a named list takes one of the two where it is exactly
// theirs, any other a private schema (namedSchema). Sizing serves a tuple
// said whole and nameless from its memo: tuples are immutable once stamped,
// and one tuple is re-sized once per delivery that carries it.
func (c *Coder) tupleFields(t **relation.Tuple, shape *relation.Schema, named bool) {
	var s *relation.Schema // what the values are said under; decoding, read onto
	name, project, memo := "", false, false
	if c.mode != decoding {
		s = (*t).Schema()
		switch {
		case named:
		case held(s, shape):
			memo = c.mode == sizing
		case shape != nil && Projects(*t, shape):
			s, project = shape, true
		default:
			named = true
		}
		if memo && (*t).CachedWireSize() != 0 {
			c.n += (*t).CachedWireSize()
			return
		}
		name = s.Name()
	}
	at := c.n
	rel := c.field(name, nil)
	var arity uint64
	if s != nil {
		arity = uint64(s.Arity())
	}
	lead := arity // 0 where the names stay home, else the arity ahead of them
	if !named {
		lead = 0
	}
	c.Uvarint(&lead)
	if lead == 0 {
		c.Uvarint(&arity)
		if c.mode == decoding && c.err == nil {
			if s = shape; s == nil {
				s = c.Catalog.LookupBytes(rel)
			}
			if s == nil || s.Name() != string(rel) || uint64(s.Arity()) != arity {
				c.err = fmt.Errorf("wire: no schema of %d attributes held for a tuple of %s", arity, rel)
			}
		}
	} else if c.mode == decoding {
		arity, s = lead, c.namedSchema(rel, lead, shape)
	} else {
		for i := 0; i < s.Arity(); i++ {
			attr := s.Attr(i)
			c.String(&attr)
		}
	}
	var vals []relation.Value
	if c.mode == decoding && c.err == nil {
		vals = make([]relation.Value, arity)
	}
	count := len(vals)
	if c.mode != decoding {
		count = s.Arity()
	}
	for i := 0; i < count; i++ {
		switch {
		case c.mode == decoding:
			c.Value(&vals[i])
		case project:
			v := (*t).ValueAt(projectedAt(*t, s, i))
			c.Value(&v)
		default:
			v := (*t).ValueAt(i)
			c.Value(&v)
		}
	}
	var pubT int64
	if c.mode != decoding {
		pubT = (*t).PubT()
	}
	c.Varint(&pubT)
	switch {
	case memo:
		(*t).SetCachedWireSize(c.n - at)
	case c.mode == decoding && c.err == nil:
		tu, err := relation.StampedTuple(s, vals, pubT)
		if err != nil {
			c.err = fmt.Errorf("wire: %w", err)
			return
		}
		*t = tu
	}
}

// namedSchema reads the n attribute names of a tuple of relation rel: the
// catalog's schema of rel, or shape, where the list is exactly theirs, and
// nothing is built; any other list, however forged, a private schema, so that
// input never aliases or alters a shared one. Every name occupies at least
// one byte: a larger n is a forged length prefix, not a short read.
func (c *Coder) namedSchema(rel []byte, n uint64, shape *relation.Schema) *relation.Schema {
	if c.err != nil {
		return nil
	}
	if n > 1<<16 || n > uint64(c.r.Remaining()) {
		c.err = fmt.Errorf("wire: implausible tuple arity %d", n)
		return nil
	}
	at := c.r.off
	for _, known := range [2]*relation.Schema{c.Catalog.LookupBytes(rel), shape} {
		if known != nil && c.r.matchesSchema(known, rel, int(n)) {
			return known
		}
		c.r.off = at
	}
	attrs := make([]string, n)
	for i := range attrs {
		c.String(&attrs[i])
	}
	if c.err != nil {
		return nil
	}
	s, err := relation.NewSchema(string(rel), attrs...)
	if err != nil {
		c.err = fmt.Errorf("wire: %w", err)
	}
	return s
}

// matchesSchema reads n attribute names and reports whether they, with the
// relation name rel, are exactly what s declares. On false the reader is
// left mid-list for the caller to rewind.
func (r *Reader) matchesSchema(s *relation.Schema, rel []byte, n int) bool {
	if s.Arity() != n || s.Name() != string(rel) {
		return false
	}
	for i := 0; i < n; i++ {
		a, err := r.Bytes()
		if err != nil || s.Attr(i) != string(a) {
			return false
		}
	}
	return true
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
// list, "" where there is none: its key; its subscriber, "" where the key names
// it (subscriberSaid); its subscriber's address; its insertion time; its text
// field, "" where the text is prevText, tokenMarker then the token form where
// it has one, else the text. Decoding resolves the query through Memo, which
// re-parses only a text it has not seen. Sizing serves the fields ahead of the
// text from the query's memo, like a tuple's.
func (c *Coder) Query(q **query.Query, prevText string) {
	var key, sub, ip []byte // decoding: what the input says
	var insT int64
	if c.mode == sizing && (*q).CachedWireSize() != 0 {
		c.n += (*q).CachedWireSize()
	} else {
		var k, s, addr string
		if c.mode != decoding {
			k, s, addr, insT = (*q).Key(), subscriberSaid(*q), (*q).SubscriberIP(), (*q).InsT()
		}
		at := c.n
		key, sub, ip = c.field(k, nil), c.field(s, nil), c.field(addr, nil)
		c.Varint(&insT)
		if c.mode == sizing {
			(*q).SetCachedWireSize(c.n - at)
		}
	}
	var text string
	var tokens []byte
	if c.mode != decoding && (*q).Text() != prevText {
		if text, tokens = (*q).Text(), (*q).Tokens(); tokens != nil {
			text = string(rune(tokenMarker))
		}
	}
	sql := c.field(text, tokens)
	if c.mode == decoding && c.err == nil {
		if i := bytes.LastIndexByte(key, '#'); len(sub) == 0 && i >= 0 {
			sub = key[:i]
		}
		*q, c.err = c.Memo.query(c.Catalog, key, sub, ip, insT, sql, prevText)
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
