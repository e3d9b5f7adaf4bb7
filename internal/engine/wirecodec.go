package engine

import (
	"cqjoin/internal/chord"
	"cqjoin/internal/obs"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// WireCodec packages the engine's message codecs (codec.go) behind the
// two-method surface a remote transport needs, so internal/transport can
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

// Observe counts the decode memo's lookups in reg. Call it before the codec
// decodes anything.
func (c WireCodec) Observe(reg *obs.Registry) {
	c.memo.Hits = reg.Counter("codec.memo_hits")
	c.memo.Misses = reg.Counter("codec.memo_misses")
	c.memo.Resets = reg.Counter("codec.memo_resets")
}

// Encode appends msg's wire encoding to w.
func (c WireCodec) Encode(w *wire.Buffer, msg chord.Message) error {
	return EncodeMessage(w, msg)
}

// Decode reads one message encoded by Encode.
func (c WireCodec) Decode(r *wire.Reader) (chord.Message, error) {
	return decodeWith(r, c.catalog, c.memo)
}

// Size reports msg's exact encoded length (0 when unknown), satisfying
// transport.Sizer: the transport prefixes each batch entry with this
// size and encodes the message directly into the frame buffer, skipping
// the per-message scratch copy.
func (c WireCodec) Size(msg chord.Message) int {
	return MessageSize(msg)
}
