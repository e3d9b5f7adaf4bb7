// Package wire defines the binary on-the-wire encoding of the system's
// payloads: attribute values, tuples, queries and notifications. The
// simulator passes Go values between nodes for speed, but every message
// type reports its encoded size through this package so the traffic ledger
// can account bytes as well as hops — and a deployment replacing the
// in-process transport with real sockets can reuse these encodings as-is.
//
// The format is length-prefixed and self-describing at the value level:
//
//	value   := kind:uint8 (0=string, 1=number, 2=integer) payload
//	string  := len:uvarint bytes
//	number  := 8 bytes IEEE-754 big endian
//	integer := varint, a number that is a whole one below 2^53
//	tuple   := relation:string arity:uvarint attr:string... value... pubT:varint
//	         | relation:string 0 arity:uvarint value... pubT:varint
//	query   := key:string subscriber:string ip:string insT:varint sql:string
//	           (subscriber "" where the key names it: key = subscriber "#" n;
//	           sql 0x00 then the token form where the query has one)
//	notif   := querykey:string subscriber:string n:uvarint value...
//	          leftPubT:varint rightPubT:varint deliveredAt:varint
//
// Queries travel as their SQL text and are re-parsed against the catalog on
// arrival; the parser is the single source of truth for query semantics. The
// text is said as its token form (query.Query.Tokens) behind the byte 0x00,
// which no text starts with: the catalog's names as ordinals, a keyword or
// symbol as one byte, rebuilt by the receiver to the same text against a
// catalog of the same digest. A query's key names its subscriber (Section
// 3.2: Key(q) is the subscriber's key, "#" and an integer), so a subscriber
// said as "" is what precedes the key's last "#".
//
// A message says nothing twice (DESIGN.md §8.1): a tuple whose receiver holds
// its schema takes the second form, a list element writes "" for the text or
// key its predecessor has, a message the relation "" for the tuple the message
// before it in its frame carries and the key "" for its query key (Coder.Prev);
// no build wrote any of them before it read them.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

const (
	kindString = 0
	kindNumber = 1
	kindInt    = 2
)

// wholeNumber returns f as an integer when a varint carries it exactly: a
// whole number of magnitude below 2^53 and not -0, whose sign would be lost.
func wholeNumber(f float64) (int64, bool) {
	i := int64(f) // some integer whatever f is, f's own inside the range
	return i, f > -(1<<53) && f < 1<<53 && float64(i) == f && (i != 0 || !math.Signbit(f))
}

// Buffer accumulates an encoding. The zero Buffer is ready to use.
type Buffer struct {
	b []byte
}

// Bytes returns the encoded contents.
func (w *Buffer) Bytes() []byte { return w.b }

// Reset truncates the buffer for reuse, keeping its capacity.
func (w *Buffer) Reset() { w.b = w.b[:0] }

// Len returns the encoded size so far.
func (w *Buffer) Len() int { return len(w.b) }

// PutUvarint appends an unsigned varint.
func (w *Buffer) PutUvarint(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

// PutVarint appends a signed varint.
func (w *Buffer) PutVarint(v int64) {
	w.b = binary.AppendVarint(w.b, v)
}

// PutUint64 appends v in eight bytes, big endian.
func (w *Buffer) PutUint64(v uint64) {
	w.b = binary.BigEndian.AppendUint64(w.b, v)
}

// PutString appends a length-prefixed string.
func (w *Buffer) PutString(s string) {
	w.PutUvarint(uint64(len(s)))
	w.b = append(w.b, s...)
}

// PutBytes appends a length-prefixed byte slice. It is the []byte twin of
// PutString: the two produce identical encodings, so a receiver may read
// either with String or Bytes.
func (w *Buffer) PutBytes(b []byte) {
	w.PutUvarint(uint64(len(b)))
	w.b = append(w.b, b...)
}

// PutRaw appends bytes verbatim, with no length prefix. Framing layers use
// it to reserve header space they patch after the payload is built.
func (w *Buffer) PutRaw(b []byte) {
	w.b = append(w.b, b...)
}

// Grow ensures the buffer has capacity for at least n more bytes, so a
// caller that knows an encoding's size up front (a sizing Coder's) can
// avoid growth copies on the hot path.
func (w *Buffer) Grow(n int) {
	if cap(w.b)-len(w.b) >= n {
		return
	}
	nb := make([]byte, len(w.b), len(w.b)+n)
	copy(nb, w.b)
	w.b = nb
}

// Reader decodes an encoding produced by Buffer.
type Reader struct {
	b   []byte
	off int
}

// NewReader wraps an encoded byte slice.
func NewReader(b []byte) *Reader { return &Reader{b: b} }

// Reset repoints the reader at b, so a long-lived Reader can decode many
// payloads without reallocating.
func (r *Reader) Reset(b []byte) {
	r.b = b
	r.off = 0
}

// Remaining returns the number of unread bytes.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Varint reads a signed varint.
func (r *Reader) Varint() (int64, error) {
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("wire: truncated varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

// Uint64 reads eight bytes written by PutUint64.
func (r *Reader) Uint64() (uint64, error) {
	if r.Remaining() < 8 {
		return 0, fmt.Errorf("wire: truncated uint64 at offset %d", r.off)
	}
	v := binary.BigEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v, nil
}

// String reads a length-prefixed string.
func (r *Reader) String() (string, error) {
	n, err := r.Uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(r.Remaining()) {
		return "", fmt.Errorf("wire: string of %d bytes exceeds remaining %d", n, r.Remaining())
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

// Bytes reads a length-prefixed byte slice without copying: the returned
// slice aliases the reader's backing array and is only valid while those
// bytes are. Callers that retain the data past the backing buffer's reuse
// must copy; transient consumers (decode-and-deliver paths) avoid the
// per-message allocation String pays.
func (r *Reader) Bytes() ([]byte, error) {
	n, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Remaining()) {
		return nil, fmt.Errorf("wire: bytes of %d exceeds remaining %d", n, r.Remaining())
	}
	b := r.b[r.off : r.off+int(n) : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

// held reports whether the receiver of a tuple of schema s holds that schema,
// so the attribute names stay home: where the tuple travels with a query, s
// declares what shape — the projection that query's plan expects — declares;
// anywhere else (shape nil) s is a catalog's. Decided on what the schemas
// declare, never on which *Schema they are, so a message rebuilt from decoded
// parts encodes as the original did. Decoding resolves by the same rule.
func held(s, shape *relation.Schema) bool {
	return shape == nil && s.Cataloged() || shape != nil && s.Equal(shape)
}

// Projects reports whether t can be said as its projection onto shape: a
// schema of t's relation whose every attribute t has.
func Projects(t *relation.Tuple, shape *relation.Schema) bool {
	s := t.Schema()
	if s.Name() != shape.Name() {
		return false
	}
	for i := 0; i < shape.Arity(); i++ {
		if !s.HasAttr(shape.Attr(i)) {
			return false
		}
	}
	return true
}

// SameProjection reports whether a and b say the same under shape, as
// Coder.Tuple says a rewrite's trigger: one tuple, or one publication time and
// the same values on shape's attributes where both project onto it.
func SameProjection(a, b *relation.Tuple, shape *relation.Schema) bool {
	if a == b {
		return true
	}
	pa, pb := Projects(a, shape), Projects(b, shape)
	if !pa || !pb {
		return !pa && !pb && a.Equal(b)
	}
	if a.PubT() != b.PubT() {
		return false
	}
	for i := 0; i < shape.Arity(); i++ {
		if a.ValueAt(projectedAt(a, shape, i)) != b.ValueAt(projectedAt(b, shape, i)) {
			return false
		}
	}
	return true
}

// projectedAt returns the position in t of shape's attribute i.
func projectedAt(t *relation.Tuple, shape *relation.Schema, i int) int {
	return t.Schema().AttrIndex(shape.Attr(i))
}

// subscriberSaid returns the subscriber q's wire form says: "" where Key(q)
// names it, Subscriber + "#" + n (Section 3.2), else the subscriber itself.
func subscriberSaid(q *query.Query) string {
	sub, key := q.Subscriber(), q.Key()
	if i := strings.LastIndexByte(key, '#'); i >= 0 && key[:i] == sub {
		return ""
	}
	return sub
}

// tokenMarker leads a query's text field where the token form stands for the
// text: a byte no SQL text starts with, so no parent wrote it there.
const tokenMarker = 0x00

// The Size* functions give the encoded lengths of the Put* calls above
// arithmetically, without materializing any bytes: a sizing Coder adds them up.

// SizeUvarint returns the encoded length of an unsigned varint.
func SizeUvarint(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// SizeVarint returns the encoded length of a signed (zig-zag) varint.
func SizeVarint(v int64) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return SizeUvarint(ux)
}

// SizeString returns a length-prefixed string's encoded size.
func SizeString(s string) int {
	return SizeUvarint(uint64(len(s))) + len(s)
}
