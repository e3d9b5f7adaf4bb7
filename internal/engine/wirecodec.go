package engine

import (
	"cqjoin/internal/chord"
	"cqjoin/internal/obs"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// WireCodec packages the engine's message codecs (codec.go) behind the
// small surface a remote transport needs, so internal/transport can
// move engine messages without importing the engine. The catalog is
// captured once, and so is the decode memo every copy of the codec shares:
// a query this receiver has decoded before — the standing queries every join
// message repeats — is returned, not re-parsed as DecodeMessage would.
//
// It satisfies transport.Codec structurally; keeping the dependency
// arrow transport→chord/wire only (never transport→engine) means the
// transport stays reusable for any message family with a codec.
type WireCodec struct {
	catalog *relation.Catalog
	memo    *wire.Memo
}

// NewWireCodec builds a codec bound to the given catalog.
func NewWireCodec(catalog *relation.Catalog) WireCodec {
	return WireCodec{catalog: catalog, memo: new(wire.Memo)}
}

// WireCodec returns a codec bound to the engine's catalog whose memo is the
// engine's: its Census counts what the process receiving through it keeps.
func (e *Engine) WireCodec() WireCodec { return WireCodec{catalog: e.catalog, memo: e.memo} }

// Observe counts the decode memo's lookups in reg. Call it before the codec
// decodes anything.
func (c WireCodec) Observe(reg *obs.Registry) {
	c.memo.Hits = reg.Counter("codec.memo_hits")
	c.memo.Misses = reg.Counter("codec.memo_misses")
	c.memo.Resets = reg.Counter("codec.memo_resets")
}

// Encode appends the wire encoding of msg on its own to w.
func (c WireCodec) Encode(w *wire.Buffer, msg chord.Message) error {
	return EncodeMessage(w, msg)
}

// Decode reads one message encoded by Encode.
func (c WireCodec) Decode(r *wire.Reader) (chord.Message, error) {
	return decodeAfter(r, c.catalog, c.memo, nil)
}

// EncodeAfter appends msg's wire encoding as it stands behind prev in a frame
// (nil: msg leads it) to w: what prev has just said — its tuple, or its query
// key and input — is not said again.
func (c WireCodec) EncodeAfter(w *wire.Buffer, msg, prev chord.Message) error {
	return encodeAfter(w, msg, prev)
}

// DecodeAfter reads one message that EncodeAfter wrote behind prev.
func (c WireCodec) DecodeAfter(r *wire.Reader, prev chord.Message) (chord.Message, error) {
	return decodeAfter(r, c.catalog, c.memo, prev)
}

// CatalogDigest names the catalog the codec decodes against: peers refuse a
// codec of another at hello.
func (c WireCodec) CatalogDigest() uint64 { return c.catalog.Digest() }

// SizeAfter reports the exact length EncodeAfter gives msg behind prev, 0 for
// a message it cannot encode: the transport prefixes each batch entry with it
// and encodes the message directly into the frame buffer.
func (c WireCodec) SizeAfter(msg, prev chord.Message) int {
	size, _ := sizeAfter(msg, prev)
	return size
}
