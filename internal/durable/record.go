package durable

import (
	"fmt"

	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// WAL record codec. One record is one engine-visible event: a client
// operation (subscribe, unsubscribe, publish, batch publish), an inbound
// overlay delivery from a remote process, or a membership view adoption.
// The codec mirrors the engine message codec's structure — dense tag
// constants, one encoder arm per tag, one ordered decoder arm per tag,
// //wire:field enc/size/dec directives on every arm — so cqlint's wiretag
// and wiresync analyzers gate the WAL exactly like the overlay wire
// protocol (ISSUE 10).

// Record tags. Dense 1..N; the wiretag analyzer rejects gaps and reuse.
const (
	tagSubscribe byte = iota + 1
	tagUnsubscribe
	tagPublish
	tagBatch
	tagDelivery
	tagView
)

// subscribeRec logs one completed Subscribe/SubscribeMulti: the client
// node, the (oriented, for multi-way) query text, and the key the engine
// assigned — replay re-derives the key from the restored sequence
// counters and asserts it matches.
type subscribeRec struct {
	Node  string
	SQL   string
	Key   string
	Multi bool
}

// unsubscribeRec logs one completed Unsubscribe/UnsubscribeMulti.
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

// batchRec logs one completed PublishBatch.
type batchRec struct {
	Nodes   []string
	Tuples  []*relation.Tuple
	Workers int
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

// encodeRecord writes one WAL record, tag first.
func encodeRecord(w *wire.Buffer, rec any) error {
	w.Grow(recordSize(rec))
	switch m := rec.(type) {
	//wire:field enc subscribeRec Node SQL Key Multi
	case subscribeRec:
		w.PutUvarint(uint64(tagSubscribe))
		w.PutString(m.Node)
		w.PutString(m.SQL)
		w.PutString(m.Key)
		w.PutUvarint(boolBit(m.Multi))
	//wire:field enc unsubscribeRec Node SQL Key Multi
	case unsubscribeRec:
		w.PutUvarint(uint64(tagUnsubscribe))
		w.PutString(m.Node)
		w.PutString(m.SQL)
		w.PutString(m.Key)
		w.PutUvarint(boolBit(m.Multi))
	//wire:field enc publishRec Node T
	case publishRec:
		w.PutUvarint(uint64(tagPublish))
		w.PutString(m.Node)
		wire.EncodeTuple(w, m.T)
	//wire:field enc batchRec Nodes Tuples Workers
	case batchRec:
		w.PutUvarint(uint64(tagBatch))
		w.PutUvarint(uint64(len(m.Nodes)))
		for _, k := range m.Nodes {
			w.PutString(k)
		}
		w.PutUvarint(uint64(len(m.Tuples)))
		for _, t := range m.Tuples {
			wire.EncodeTuple(w, t)
		}
		w.PutUvarint(uint64(m.Workers))
	//wire:field enc deliveryRec Node Frame
	case deliveryRec:
		w.PutUvarint(uint64(tagDelivery))
		w.PutString(m.Node)
		w.PutBytes(m.Frame)
	//wire:field enc viewRec View
	case viewRec:
		w.PutUvarint(uint64(tagView))
		wire.EncodeMemberView(w, m.View)
	default:
		return fmt.Errorf("durable: no codec for record type %T", rec)
	}
	return nil
}

// recordSize returns a record's exact encoded length (mirroring
// encodeRecord field for field, like the engine's wireSize).
func recordSize(rec any) int {
	const tagLen = 1
	switch m := rec.(type) {
	//wire:field size subscribeRec Node SQL Key Multi
	case subscribeRec:
		return tagLen + wire.SizeString(m.Node) + wire.SizeString(m.SQL) +
			wire.SizeString(m.Key) + wire.SizeUvarint(boolBit(m.Multi))
	//wire:field size unsubscribeRec Node SQL Key Multi
	case unsubscribeRec:
		return tagLen + wire.SizeString(m.Node) + wire.SizeString(m.SQL) +
			wire.SizeString(m.Key) + wire.SizeUvarint(boolBit(m.Multi))
	//wire:field size publishRec Node T
	case publishRec:
		return tagLen + wire.SizeString(m.Node) + wire.SizeTuple(m.T)
	//wire:field size batchRec Nodes Tuples Workers
	case batchRec:
		n := tagLen + wire.SizeUvarint(uint64(len(m.Nodes)))
		for _, k := range m.Nodes {
			n += wire.SizeString(k)
		}
		n += wire.SizeUvarint(uint64(len(m.Tuples)))
		for _, t := range m.Tuples {
			n += wire.SizeTuple(t)
		}
		return n + wire.SizeUvarint(uint64(m.Workers))
	//wire:field size deliveryRec Node Frame
	case deliveryRec:
		return tagLen + wire.SizeString(m.Node) +
			wire.SizeUvarint(uint64(len(m.Frame))) + len(m.Frame)
	//wire:field size viewRec View
	case viewRec:
		return tagLen + wire.SizeMemberView(m.View)
	default:
		return 0
	}
}

// decodeRecord reads one WAL record encoded by encodeRecord.
func decodeRecord(r *wire.Reader) (any, error) {
	tag, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	switch byte(tag) {
	//wire:field dec subscribeRec Node SQL Key Multi
	case tagSubscribe:
		var m subscribeRec
		if m.Node, err = r.String(); err != nil {
			return nil, err
		}
		if m.SQL, err = r.String(); err != nil {
			return nil, err
		}
		if m.Key, err = r.String(); err != nil {
			return nil, err
		}
		multi, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		m.Multi = multi != 0
		return m, nil
	//wire:field dec unsubscribeRec Node SQL Key Multi
	case tagUnsubscribe:
		var m unsubscribeRec
		if m.Node, err = r.String(); err != nil {
			return nil, err
		}
		if m.SQL, err = r.String(); err != nil {
			return nil, err
		}
		if m.Key, err = r.String(); err != nil {
			return nil, err
		}
		multi, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		m.Multi = multi != 0
		return m, nil
	//wire:field dec publishRec Node T
	case tagPublish:
		var m publishRec
		if m.Node, err = r.String(); err != nil {
			return nil, err
		}
		if m.T, err = wire.DecodeTuple(r, nil, nil); err != nil {
			return nil, err
		}
		return m, nil
	//wire:field dec batchRec Nodes Tuples Workers
	case tagBatch:
		var m batchRec
		nn, err := recCount(r)
		if err != nil {
			return nil, err
		}
		m.Nodes = make([]string, nn)
		for i := range m.Nodes {
			if m.Nodes[i], err = r.String(); err != nil {
				return nil, err
			}
		}
		nt, err := recCount(r)
		if err != nil {
			return nil, err
		}
		m.Tuples = make([]*relation.Tuple, nt)
		for i := range m.Tuples {
			if m.Tuples[i], err = wire.DecodeTuple(r, nil, nil); err != nil {
				return nil, err
			}
		}
		workers, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		m.Workers = int(workers)
		return m, nil
	//wire:field dec deliveryRec Node Frame
	case tagDelivery:
		var m deliveryRec
		if m.Node, err = r.String(); err != nil {
			return nil, err
		}
		if m.Frame, err = r.Bytes(); err != nil {
			return nil, err
		}
		return m, nil
	//wire:field dec viewRec View
	case tagView:
		var m viewRec
		if m.View, err = wire.DecodeMemberView(r); err != nil {
			return nil, err
		}
		return m, nil
	default:
		return nil, fmt.Errorf("durable: unknown record tag %d", tag)
	}
}

// recCount validates an element count against the bytes remaining, like
// the engine codec's decodeCount: every element takes at least one byte.
func recCount(r *wire.Reader) (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining()) {
		return 0, fmt.Errorf("durable: element count %d exceeds %d remaining bytes", n, r.Remaining())
	}
	return int(n), nil
}

// boolBit renders a bool as its uvarint wire bit.
func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
