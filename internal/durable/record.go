package durable

import (
	"fmt"

	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// WAL record codec. One record is one engine-visible event: a client
// operation (subscribe, unsubscribe, publish), an inbound overlay delivery
// from a remote process, or a membership view adoption.
// Like the engine's messages (engine/codec.go), every record lists its
// fields once, in a walk method against a wire.Coder that recordSize,
// encodeRecord and decodeRecord all run; testdata/records.golden pins the
// bytes, tag numbers included, so a wal.log an earlier build wrote replays.

// Record tags. Tag 4 logged a batched publish; it stays reserved, so a log
// holding one fails Open as an unknown tag.
const (
	tagSubscribe byte = iota + 1
	tagUnsubscribe
	tagPublish
	_
	tagDelivery
	tagView
)

// subscribeRec logs one completed Subscribe: the client node, the query
// text, and the key the engine assigned — replay re-derives the key from the
// restored sequence counters and asserts it matches. Multi says the query
// joins more than two relations; replay reads the arity off the text.
// Earlier builds set it for a chain of two as well.
type subscribeRec struct {
	Node  string
	SQL   string
	Key   string
	Multi bool
}

// unsubscribeRec logs one completed Unsubscribe; Multi as subscribeRec's.
type unsubscribeRec struct {
	Node  string
	SQL   string
	Key   string
	Multi bool
}

// publishRec logs one completed Publish of the unstamped input tuple;
// replay re-stamps it through the restored clock.
type publishRec struct {
	Node string
	T    *relation.Tuple
}

// deliveryRec logs one inbound remote delivery, acknowledged only after
// this record is durable: the destination node key and the encoded
// engine message.
type deliveryRec struct {
	Node  string
	Frame []byte
}

// viewRec logs one adopted membership view.
type viewRec struct {
	View *wire.MemberView
}

func (m *subscribeRec) walk(c *wire.Coder) {
	c.String(&m.Node)
	c.String(&m.SQL)
	c.String(&m.Key)
	c.Bool(&m.Multi)
}

func (m *unsubscribeRec) walk(c *wire.Coder) {
	c.String(&m.Node)
	c.String(&m.SQL)
	c.String(&m.Key)
	c.Bool(&m.Multi)
}

func (m *publishRec) walk(c *wire.Coder) {
	c.String(&m.Node)
	c.NamedTuple(&m.T) // decodeRecord holds no catalog to look a relation up in
}

// A decoded Frame aliases the record's bytes.
func (m *deliveryRec) walk(c *wire.Coder) {
	c.String(&m.Node)
	c.Bytes(&m.Frame)
}

func (m *viewRec) walk(c *wire.Coder) {
	if c.Decoding() {
		m.View = new(wire.MemberView)
	}
	m.View.Walk(c)
}

// encodeRecord writes one WAL record, tag first.
func encodeRecord(w *wire.Buffer, rec any) error {
	w.Grow(recordSize(rec))
	c := wire.Encoder(w)
	walkRecord(&c, &rec)
	return c.Flush(w)
}

// recordSize returns a record's exact encoded length, 0 for a type with no
// codec.
func recordSize(rec any) int {
	var c wire.Coder
	walkRecord(&c, &rec)
	if c.Err() != nil {
		return 0
	}
	return c.Size()
}

// decodeRecord reads one WAL record encoded by encodeRecord. It holds no
// catalog: a record's tuples decode onto schemas of their own.
func decodeRecord(r *wire.Reader) (any, error) {
	c := wire.Decoder(r, nil, nil)
	var rec any
	walkRecord(&c, &rec)
	if err := c.Sync(r); err != nil {
		return nil, err
	}
	return rec, nil
}

// walkRecord walks one record behind its tag: by type to size or encode it,
// by the tag read to decode it.
func walkRecord(c *wire.Coder, rec *any) {
	if !c.Decoding() {
		switch m := (*rec).(type) {
		case subscribeRec:
			c.Tag(tagSubscribe)
			m.walk(c)
		case unsubscribeRec:
			c.Tag(tagUnsubscribe)
			m.walk(c)
		case publishRec:
			c.Tag(tagPublish)
			m.walk(c)
		case deliveryRec:
			c.Tag(tagDelivery)
			m.walk(c)
		case viewRec:
			c.Tag(tagView)
			m.walk(c)
		default:
			c.Fail(fmt.Errorf("durable: no codec for record type %T", m))
		}
		return
	}
	switch tag := c.Tag(0); tag {
	case tagSubscribe:
		var m subscribeRec
		m.walk(c)
		*rec = m
	case tagUnsubscribe:
		var m unsubscribeRec
		m.walk(c)
		*rec = m
	case tagPublish:
		var m publishRec
		m.walk(c)
		*rec = m
	case tagDelivery:
		var m deliveryRec
		m.walk(c)
		*rec = m
	case tagView:
		var m viewRec
		m.walk(c)
		*rec = m
	default:
		c.Fail(fmt.Errorf("durable: unknown record tag %d", tag))
	}
}
