package engine

import (
	"fmt"

	"cqjoin/internal/chord"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// Full wire codecs for every engine message. The in-process simulator
// passes Go values between nodes for speed, but the encodings here are the
// authoritative on-the-wire form: every message's Size() is the exact
// length of its encoding (enforced by tests), so the byte ledger reports
// what a socket deployment would actually transmit, and a real transport
// can adopt EncodeMessage/DecodeMessage unchanged.
//
// Every encoder arm carries a //wire:field enc directive declaring the
// wire field order; the wiresync analyzer (cmd/cqlint, DESIGN.md §9)
// checks the arm writes exactly those fields in exactly that order and
// pairs each directive with its size counterpart in wiresize.go. When
// adding a field: update the arm, its directive, and both wiresize.go
// sides — cqlint fails the build until all four agree.

// Message type tags.
const (
	tagQuery byte = iota + 1
	tagALIndex
	tagVLIndex
	tagJoin
	tagJoinV
	tagJoinBatch
	tagNotify
	tagProbe
	tagUnsub
	tagPurge
	tagBaselineQuery
	tagBaselineTuple
	tagBaselineProbe
	tagMQuery
	tagMJoin
	tagHandoff
	tagHotJoin
	tagHotVLIndex
	tagHotMigrate
	tagHotRecall
	tagHotHandoff
	tagSnapMeta
)

// EncodeMessage appends msg's wire form to w. The buffer is pre-grown to
// the arithmetic size (memoized per tuple/query, so this costs no second
// walk), turning the append sequence into straight copies with no
// mid-message reallocation.
func EncodeMessage(w *wire.Buffer, msg chord.Message) error {
	if n := wireSize(msg); n > 0 {
		w.Grow(n)
	}
	switch m := msg.(type) {
	//wire:field enc queryMsg Q Attr Side Replica
	case queryMsg:
		w.PutUvarint(uint64(tagQuery))
		wire.EncodeQuery(w, m.Q)
		w.PutString(m.Attr)
		w.PutUvarint(uint64(m.Side))
		w.PutUvarint(uint64(m.Replica))
	//wire:field enc alIndexMsg T Attr Replica
	case alIndexMsg:
		w.PutUvarint(uint64(tagALIndex))
		wire.EncodeTuple(w, m.T)
		w.PutString(m.Attr)
		w.PutUvarint(uint64(m.Replica))
	//wire:field enc vlIndexMsg T Attr
	case vlIndexMsg:
		w.PutUvarint(uint64(tagVLIndex))
		wire.EncodeTuple(w, m.T)
		w.PutString(m.Attr)
	//wire:field enc joinMsg Rewrites
	case joinMsg:
		w.PutUvarint(uint64(tagJoin))
		w.PutUvarint(uint64(len(m.Rewrites)))
		for _, rw := range m.Rewrites {
			encodeRewritten(w, rw)
		}
	//wire:field enc joinVMsg Input Cond Side Value Trigger Queries
	case joinVMsg:
		w.PutUvarint(uint64(tagJoinV))
		w.PutString(m.Input)
		w.PutString(m.Cond)
		w.PutUvarint(uint64(m.Side))
		w.PutValue(m.Value)
		wire.EncodeTuple(w, m.Trigger)
		w.PutUvarint(uint64(len(m.Queries)))
		for _, q := range m.Queries {
			wire.EncodeQuery(w, q)
		}
	//wire:field enc joinBatch Msgs
	case joinBatch:
		w.PutUvarint(uint64(tagJoinBatch))
		w.PutUvarint(uint64(len(m.Msgs)))
		for _, inner := range m.Msgs {
			if err := EncodeMessage(w, inner); err != nil {
				return err
			}
		}
	//wire:field enc notifyMsg Subscriber Batch
	case notifyMsg:
		w.PutUvarint(uint64(tagNotify))
		w.PutString(m.Subscriber)
		w.PutUvarint(uint64(len(m.Batch)))
		for _, n := range m.Batch {
			encodeNotification(w, n)
		}
	//wire:field enc probeMsg AttrInput
	case probeMsg:
		w.PutUvarint(uint64(tagProbe))
		w.PutString(m.AttrInput)
	//wire:field enc unsubMsg QueryKey Cond Input
	case unsubMsg:
		w.PutUvarint(uint64(tagUnsub))
		w.PutString(m.QueryKey)
		w.PutString(m.Cond)
		w.PutString(m.Input)
	//wire:field enc purgeMsg QueryKey Input
	case purgeMsg:
		w.PutUvarint(uint64(tagPurge))
		w.PutString(m.QueryKey)
		w.PutString(m.Input)
	//wire:field enc baselineQueryMsg Q Side Input
	case baselineQueryMsg:
		w.PutUvarint(uint64(tagBaselineQuery))
		wire.EncodeQuery(w, m.Q)
		w.PutUvarint(uint64(m.Side))
		w.PutString(m.Input)
	//wire:field enc baselineTupleMsg T Input Side
	case baselineTupleMsg:
		w.PutUvarint(uint64(tagBaselineTuple))
		wire.EncodeTuple(w, m.T)
		w.PutString(m.Input)
		w.PutUvarint(uint64(m.Side))
	//wire:field enc baselineProbeMsg Input Rewrites
	case baselineProbeMsg:
		w.PutUvarint(uint64(tagBaselineProbe))
		w.PutString(m.Input)
		w.PutUvarint(uint64(len(m.Rewrites)))
		for _, rw := range m.Rewrites {
			encodeRewritten(w, rw)
		}
	//wire:field enc mQueryMsg MQ Attr Replica
	case mQueryMsg:
		w.PutUvarint(uint64(tagMQuery))
		encodeMultiQuery(w, m.MQ)
		w.PutString(m.Attr)
		w.PutUvarint(uint64(m.Replica))
	//wire:field enc mJoinMsg Rewrites
	case mJoinMsg:
		w.PutUvarint(uint64(tagMJoin))
		w.PutUvarint(uint64(len(m.Rewrites)))
		for _, rw := range m.Rewrites {
			encodeMRewritten(w, rw)
		}
	//wire:field enc handoffMsg AL VQ MQ VT DV Notifs
	case handoffMsg:
		w.PutUvarint(uint64(tagHandoff))
		w.PutUvarint(uint64(len(m.AL)))
		for _, sec := range m.AL {
			encodeALSection(w, sec)
		}
		w.PutUvarint(uint64(len(m.VQ)))
		for _, sec := range m.VQ {
			encodeVQSection(w, sec)
		}
		w.PutUvarint(uint64(len(m.MQ)))
		for _, sec := range m.MQ {
			encodeMQSection(w, sec)
		}
		w.PutUvarint(uint64(len(m.VT)))
		for _, sec := range m.VT {
			encodeVTSection(w, sec)
		}
		w.PutUvarint(uint64(len(m.DV)))
		for _, sec := range m.DV {
			encodeDVSection(w, sec)
		}
		w.PutUvarint(uint64(len(m.Notifs)))
		for _, sec := range m.Notifs {
			encodeNotifSection(w, sec)
		}
	//wire:field enc hotJoinMsg Input Shard Version K Rewrites
	case hotJoinMsg:
		w.PutUvarint(uint64(tagHotJoin))
		w.PutString(m.Input)
		w.PutUvarint(uint64(m.Shard))
		w.PutUvarint(uint64(m.Version))
		w.PutUvarint(uint64(m.K))
		w.PutUvarint(uint64(len(m.Rewrites)))
		for _, rw := range m.Rewrites {
			encodeRewritten(w, rw)
		}
	//wire:field enc hotVLIndexMsg Input Shard Version K T
	case hotVLIndexMsg:
		w.PutUvarint(uint64(tagHotVLIndex))
		w.PutString(m.Input)
		w.PutUvarint(uint64(m.Shard))
		w.PutUvarint(uint64(m.Version))
		w.PutUvarint(uint64(m.K))
		wire.EncodeTuple(w, m.T)
	//wire:field enc hotMigrateMsg Input Version K
	case hotMigrateMsg:
		w.PutUvarint(uint64(tagHotMigrate))
		w.PutString(m.Input)
		w.PutUvarint(uint64(m.Version))
		w.PutUvarint(uint64(m.K))
	//wire:field enc hotRecallMsg Input Shard Version K
	case hotRecallMsg:
		w.PutUvarint(uint64(tagHotRecall))
		w.PutString(m.Input)
		w.PutUvarint(uint64(m.Shard))
		w.PutUvarint(uint64(m.Version))
		w.PutUvarint(uint64(m.K))
	//wire:field enc hotHandoffMsg Input Shard Version K Entries Tuples
	case hotHandoffMsg:
		w.PutUvarint(uint64(tagHotHandoff))
		w.PutString(m.Input)
		w.PutUvarint(uint64(m.Shard))
		w.PutUvarint(uint64(m.Version))
		w.PutUvarint(uint64(m.K))
		w.PutUvarint(uint64(len(m.Entries)))
		for _, e := range m.Entries {
			encodeVQEntry(w, e)
		}
		w.PutUvarint(uint64(len(m.Tuples)))
		for _, t := range m.Tuples {
			wire.EncodeTuple(w, t)
		}
	//wire:field enc snapMetaMsg Clock Nodes Down Seq Subs Multi Conds Sink HotEpochs HotCounts
	case snapMetaMsg:
		w.PutUvarint(uint64(tagSnapMeta))
		w.PutVarint(m.Clock)
		w.PutUvarint(uint64(len(m.Nodes)))
		for _, k := range m.Nodes {
			w.PutString(k)
		}
		w.PutUvarint(uint64(len(m.Down)))
		for _, k := range m.Down {
			w.PutString(k)
		}
		w.PutUvarint(uint64(len(m.Seq)))
		for _, s := range m.Seq {
			encodeSeqEntry(w, s)
		}
		w.PutUvarint(uint64(len(m.Subs)))
		for _, s := range m.Subs {
			encodeSubsEntry(w, s)
		}
		w.PutUvarint(boolBit(m.Multi))
		w.PutUvarint(uint64(len(m.Conds)))
		for _, q := range m.Conds {
			wire.EncodeQuery(w, q)
		}
		w.PutUvarint(uint64(len(m.Sink)))
		for _, n := range m.Sink {
			encodeNotification(w, n)
		}
		w.PutUvarint(uint64(len(m.HotEpochs)))
		for _, e := range m.HotEpochs {
			encodeHotEpochEntry(w, e)
		}
		w.PutUvarint(uint64(len(m.HotCounts)))
		for _, c := range m.HotCounts {
			encodeHotCountEntry(w, c)
		}
	default:
		return fmt.Errorf("engine: no codec for message type %T", msg)
	}
	return nil
}

//wire:field enc rewritten Key Orig rewriteTarget
func encodeRewritten(w *wire.Buffer, rw *rewritten) {
	w.PutString(rw.Key)
	wire.EncodeQuery(w, rw.Orig)
	encodeRewriteTarget(w, rw.rewriteTarget)
}

//wire:field enc rewriteTarget IndexSide Trigger WantRel WantAttr WantValue
func encodeRewriteTarget(w *wire.Buffer, tg *rewriteTarget) {
	w.PutUvarint(uint64(tg.IndexSide))
	wire.EncodeTuple(w, tg.Trigger)
	w.PutString(tg.WantRel)
	w.PutString(tg.WantAttr)
	w.PutValue(tg.WantValue)
}

//wire:field enc Notification QueryKey Subscriber subscriberIP Values LeftPubT RightPubT DeliveredAt
func encodeNotification(w *wire.Buffer, n Notification) {
	w.PutString(n.QueryKey)
	w.PutString(n.Subscriber)
	w.PutString(n.subscriberIP)
	w.PutUvarint(uint64(len(n.Values)))
	for _, v := range n.Values {
		w.PutValue(v)
	}
	w.PutVarint(n.LeftPubT)
	w.PutVarint(n.RightPubT)
	w.PutVarint(n.DeliveredAt)
}

//wire:field enc MultiQuery Key Subscriber SubscriberIP InsT Text Rels
func encodeMultiQuery(w *wire.Buffer, mq *query.MultiQuery) {
	w.PutString(mq.Key())
	w.PutString(mq.Subscriber())
	w.PutString(mq.SubscriberIP())
	w.PutVarint(mq.InsT())
	w.PutString(mq.Text())
	w.PutString(mq.Rels()[0].Name()) // pipeline orientation marker
}

//wire:field enc mRewritten Key Orig Stage Acc WantRel WantAttr WantValue
func encodeMRewritten(w *wire.Buffer, rw *mRewritten) {
	w.PutString(rw.Key)
	encodeMultiQuery(w, rw.Orig)
	w.PutUvarint(uint64(rw.Stage))
	w.PutUvarint(uint64(len(rw.Acc)))
	for _, t := range rw.Acc {
		wire.EncodeTuple(w, t)
	}
	w.PutString(rw.WantRel)
	w.PutString(rw.WantAttr)
	w.PutValue(rw.WantValue)
}

//wire:field enc targetsEntry Key Targets
func encodeTargetsEntry(w *wire.Buffer, e targetsEntry) {
	w.PutString(e.Key)
	w.PutUvarint(uint64(len(e.Targets)))
	for _, t := range e.Targets {
		w.PutString(t)
	}
}

//wire:field enc alGroupSection Cond Side Queries
func encodeALGroupSection(w *wire.Buffer, g alGroupSection) {
	w.PutString(g.Cond)
	w.PutUvarint(uint64(g.Side))
	w.PutUvarint(uint64(len(g.Queries)))
	for _, q := range g.Queries {
		wire.EncodeQuery(w, q)
	}
}

//wire:field enc alMultiSection Cond Queries
func encodeALMultiSection(w *wire.Buffer, g alMultiSection) {
	w.PutString(g.Cond)
	w.PutUvarint(uint64(len(g.Queries)))
	for _, mq := range g.Queries {
		encodeMultiQuery(w, mq)
	}
}

//wire:field enc alSection Input Groups Multi SentRewrites SentTargets
func encodeALSection(w *wire.Buffer, sec alSection) {
	w.PutString(sec.Input)
	w.PutUvarint(uint64(len(sec.Groups)))
	for _, g := range sec.Groups {
		encodeALGroupSection(w, g)
	}
	w.PutUvarint(uint64(len(sec.Multi)))
	for _, g := range sec.Multi {
		encodeALMultiSection(w, g)
	}
	w.PutUvarint(uint64(len(sec.SentRewrites)))
	for _, k := range sec.SentRewrites {
		w.PutString(k)
	}
	w.PutUvarint(uint64(len(sec.SentTargets)))
	for _, e := range sec.SentTargets {
		encodeTargetsEntry(w, e)
	}
}

//wire:field enc vqEntry Rw Times
func encodeVQEntry(w *wire.Buffer, e vqEntry) {
	encodeRewritten(w, e.Rw)
	w.PutUvarint(uint64(len(e.Times)))
	for _, t := range e.Times {
		w.PutVarint(t)
	}
}

//wire:field enc vqSection Input Entries
func encodeVQSection(w *wire.Buffer, sec vqSection) {
	w.PutString(sec.Input)
	w.PutUvarint(uint64(len(sec.Entries)))
	for _, e := range sec.Entries {
		encodeVQEntry(w, e)
	}
}

//wire:field enc mqSection Input Rewrites SentTargets
func encodeMQSection(w *wire.Buffer, sec mqSection) {
	w.PutString(sec.Input)
	w.PutUvarint(uint64(len(sec.Rewrites)))
	for _, rw := range sec.Rewrites {
		encodeMRewritten(w, rw)
	}
	w.PutUvarint(uint64(len(sec.SentTargets)))
	for _, e := range sec.SentTargets {
		encodeTargetsEntry(w, e)
	}
}

//wire:field enc vtSection Input Tuples
func encodeVTSection(w *wire.Buffer, sec vtSection) {
	w.PutString(sec.Input)
	w.PutUvarint(uint64(len(sec.Tuples)))
	for _, t := range sec.Tuples {
		wire.EncodeTuple(w, t)
	}
}

//wire:field enc dvEntry Cond Left Right
func encodeDVEntry(w *wire.Buffer, e dvEntry) {
	w.PutString(e.Cond)
	w.PutUvarint(uint64(len(e.Left)))
	for _, t := range e.Left {
		wire.EncodeTuple(w, t)
	}
	w.PutUvarint(uint64(len(e.Right)))
	for _, t := range e.Right {
		wire.EncodeTuple(w, t)
	}
}

//wire:field enc dvSection Input Entries
func encodeDVSection(w *wire.Buffer, sec dvSection) {
	w.PutString(sec.Input)
	w.PutUvarint(uint64(len(sec.Entries)))
	for _, e := range sec.Entries {
		encodeDVEntry(w, e)
	}
}

//wire:field enc notifSection Subscriber Batch
func encodeNotifSection(w *wire.Buffer, sec notifSection) {
	w.PutString(sec.Subscriber)
	w.PutUvarint(uint64(len(sec.Batch)))
	for _, n := range sec.Batch {
		encodeNotification(w, n)
	}
}

//wire:field enc seqEntry Key Seq
func encodeSeqEntry(w *wire.Buffer, s seqEntry) {
	w.PutString(s.Key)
	w.PutVarint(s.Seq)
}

//wire:field enc subsEntry Key Inputs
func encodeSubsEntry(w *wire.Buffer, s subsEntry) {
	w.PutString(s.Key)
	w.PutUvarint(uint64(len(s.Inputs)))
	for _, in := range s.Inputs {
		w.PutString(in)
	}
}

//wire:field enc hotEpochEntry Input Version K
func encodeHotEpochEntry(w *wire.Buffer, e hotEpochEntry) {
	w.PutString(e.Input)
	w.PutUvarint(uint64(e.Version))
	w.PutUvarint(uint64(e.K))
}

//wire:field enc hotCountEntry Input Count WindowStart
func encodeHotCountEntry(w *wire.Buffer, c hotCountEntry) {
	w.PutString(c.Input)
	w.PutVarint(c.Count)
	w.PutVarint(c.WindowStart)
}

// boolBit renders a bool as its uvarint wire bit.
func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// decodeCount reads an element count and validates it against the bytes
// actually remaining: every element occupies at least one byte, so a larger
// count is a malformed (or hostile) message — rejecting it here keeps a
// forged length prefix from driving a giant allocation before the
// per-element reads would fail anyway.
func decodeCount(r *wire.Reader) (int, error) {
	n, err := r.Uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(r.Remaining()) {
		return 0, fmt.Errorf("engine: element count %d exceeds %d remaining bytes", n, r.Remaining())
	}
	return int(n), nil
}

// DecodeMessage reads one message encoded by EncodeMessage, resolving
// queries against the catalog. Nothing decoded is shared with any other
// call; a receiver of many messages decodes through a WireCodec, whose memo
// is.
func DecodeMessage(r *wire.Reader, catalog *relation.Catalog) (chord.Message, error) {
	return decodeMessage(r, catalog, new(wire.Memo))
}

func decodeMessage(r *wire.Reader, catalog *relation.Catalog, memo *wire.Memo) (chord.Message, error) {
	tag, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	switch byte(tag) {
	//wire:field dec queryMsg Q Attr Side Replica
	case tagQuery:
		q, err := wire.DecodeQuery(r, catalog, memo)
		if err != nil {
			return nil, err
		}
		attr, err := r.String()
		if err != nil {
			return nil, err
		}
		side, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		replica, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		return queryMsg{Q: q, Attr: attr, Side: query.Side(side), Replica: int(replica)}, nil
	//wire:field dec alIndexMsg T Attr Replica
	case tagALIndex:
		t, err := wire.DecodeTuple(r, catalog, nil)
		if err != nil {
			return nil, err
		}
		attr, err := r.String()
		if err != nil {
			return nil, err
		}
		replica, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		return alIndexMsg{T: t, Attr: attr, Replica: int(replica)}, nil
	//wire:field dec vlIndexMsg T Attr
	case tagVLIndex:
		t, err := wire.DecodeTuple(r, catalog, nil)
		if err != nil {
			return nil, err
		}
		attr, err := r.String()
		if err != nil {
			return nil, err
		}
		return vlIndexMsg{T: t, Attr: attr}, nil
	//wire:field dec joinMsg Rewrites
	case tagJoin:
		rws, err := decodeRewrittens(r, catalog, memo)
		if err != nil {
			return nil, err
		}
		return joinMsg{Rewrites: rws}, nil
	//wire:field dec joinVMsg Input Cond Side Value Trigger Queries
	case tagJoinV:
		input, err := r.String()
		if err != nil {
			return nil, err
		}
		cond, err := r.String()
		if err != nil {
			return nil, err
		}
		side, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		val, err := r.Value()
		if err != nil {
			return nil, err
		}
		trig, err := wire.DecodeTuple(r, catalog, nil)
		if err != nil {
			return nil, err
		}
		n, err := decodeCount(r)
		if err != nil {
			return nil, err
		}
		qs := make([]*query.Query, n)
		for i := range qs {
			if qs[i], err = wire.DecodeQuery(r, catalog, memo); err != nil {
				return nil, err
			}
		}
		return joinVMsg{Input: input, Cond: cond, Side: query.Side(side), Value: val, Trigger: trig, Queries: qs}, nil
	//wire:field dec joinBatch Msgs
	case tagJoinBatch:
		n, err := decodeCount(r)
		if err != nil {
			return nil, err
		}
		msgs := make([]chord.Message, n)
		for i := range msgs {
			if msgs[i], err = decodeMessage(r, catalog, memo); err != nil {
				return nil, err
			}
		}
		return joinBatch{Msgs: msgs}, nil
	//wire:field dec notifyMsg Subscriber Batch
	case tagNotify:
		sub, err := r.String()
		if err != nil {
			return nil, err
		}
		n, err := decodeCount(r)
		if err != nil {
			return nil, err
		}
		batch := make([]Notification, n)
		for i := range batch {
			if batch[i], err = decodeNotification(r, memo); err != nil {
				return nil, err
			}
		}
		return notifyMsg{Subscriber: sub, Batch: batch}, nil
	//wire:field dec probeMsg AttrInput
	case tagProbe:
		input, err := r.String()
		if err != nil {
			return nil, err
		}
		return probeMsg{AttrInput: input}, nil
	//wire:field dec unsubMsg QueryKey Cond Input
	case tagUnsub:
		key, err := r.String()
		if err != nil {
			return nil, err
		}
		cond, err := r.String()
		if err != nil {
			return nil, err
		}
		input, err := r.String()
		if err != nil {
			return nil, err
		}
		return unsubMsg{QueryKey: key, Cond: cond, Input: input}, nil
	//wire:field dec purgeMsg QueryKey Input
	case tagPurge:
		key, err := r.String()
		if err != nil {
			return nil, err
		}
		input, err := r.String()
		if err != nil {
			return nil, err
		}
		return purgeMsg{QueryKey: key, Input: input}, nil
	//wire:field dec baselineQueryMsg Q Side Input
	case tagBaselineQuery:
		q, err := wire.DecodeQuery(r, catalog, memo)
		if err != nil {
			return nil, err
		}
		side, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		input, err := r.String()
		if err != nil {
			return nil, err
		}
		return baselineQueryMsg{Q: q, Side: query.Side(side), Input: input}, nil
	//wire:field dec baselineTupleMsg T Input Side
	case tagBaselineTuple:
		t, err := wire.DecodeTuple(r, catalog, nil)
		if err != nil {
			return nil, err
		}
		input, err := r.String()
		if err != nil {
			return nil, err
		}
		side, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		return baselineTupleMsg{T: t, Input: input, Side: query.Side(side)}, nil
	//wire:field dec baselineProbeMsg Input Rewrites
	case tagBaselineProbe:
		input, err := r.String()
		if err != nil {
			return nil, err
		}
		rws, err := decodeRewrittens(r, catalog, memo)
		if err != nil {
			return nil, err
		}
		return baselineProbeMsg{Input: input, Rewrites: rws}, nil
	//wire:field dec mQueryMsg MQ Attr Replica
	case tagMQuery:
		mq, err := decodeMultiQuery(r, catalog)
		if err != nil {
			return nil, err
		}
		attr, err := r.String()
		if err != nil {
			return nil, err
		}
		replica, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		return mQueryMsg{MQ: mq, Attr: attr, Replica: int(replica)}, nil
	//wire:field dec mJoinMsg Rewrites
	case tagMJoin:
		n, err := decodeCount(r)
		if err != nil {
			return nil, err
		}
		rws := make([]*mRewritten, n)
		for i := range rws {
			if rws[i], err = decodeMRewritten(r, catalog); err != nil {
				return nil, err
			}
		}
		return mJoinMsg{Rewrites: rws}, nil
	case tagHandoff:
		// A node's whole state, decoded once: kept out of the long-lived memo.
		return decodeHandoff(r, catalog, new(wire.Memo))
	//wire:field dec hotJoinMsg Input Shard Version K Rewrites
	case tagHotJoin:
		input, err := r.String()
		if err != nil {
			return nil, err
		}
		shard, version, k, err := decodeHotHeader(r)
		if err != nil {
			return nil, err
		}
		rws, err := decodeRewrittens(r, catalog, memo)
		if err != nil {
			return nil, err
		}
		return hotJoinMsg{Input: input, Shard: shard, Version: version, K: k, Rewrites: rws}, nil
	//wire:field dec hotVLIndexMsg Input Shard Version K T
	case tagHotVLIndex:
		input, err := r.String()
		if err != nil {
			return nil, err
		}
		shard, version, k, err := decodeHotHeader(r)
		if err != nil {
			return nil, err
		}
		t, err := wire.DecodeTuple(r, catalog, nil)
		if err != nil {
			return nil, err
		}
		return hotVLIndexMsg{Input: input, Shard: shard, Version: version, K: k, T: t}, nil
	//wire:field dec hotMigrateMsg Input Version K
	case tagHotMigrate:
		input, err := r.String()
		if err != nil {
			return nil, err
		}
		version, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		k, err := r.Uvarint()
		if err != nil {
			return nil, err
		}
		return hotMigrateMsg{Input: input, Version: int(version), K: int(k)}, nil
	//wire:field dec hotRecallMsg Input Shard Version K
	case tagHotRecall:
		input, err := r.String()
		if err != nil {
			return nil, err
		}
		shard, version, k, err := decodeHotHeader(r)
		if err != nil {
			return nil, err
		}
		return hotRecallMsg{Input: input, Shard: shard, Version: version, K: k}, nil
	//wire:field dec hotHandoffMsg Input Shard Version K Entries Tuples
	case tagHotHandoff:
		input, err := r.String()
		if err != nil {
			return nil, err
		}
		shard, version, k, err := decodeHotHeader(r)
		if err != nil {
			return nil, err
		}
		ne, err := decodeCount(r)
		if err != nil {
			return nil, err
		}
		entries := make([]vqEntry, ne)
		d := rewriteDecoder{catalog: catalog, memo: memo}
		for i := range entries {
			if entries[i], err = decodeVQEntry(r, &d); err != nil {
				return nil, err
			}
		}
		nt, err := decodeCount(r)
		if err != nil {
			return nil, err
		}
		tuples := make([]*relation.Tuple, nt)
		for i := range tuples {
			if tuples[i], err = wire.DecodeTuple(r, catalog, nil); err != nil {
				return nil, err
			}
		}
		return hotHandoffMsg{Input: input, Shard: shard, Version: version, K: k, Entries: entries, Tuples: tuples}, nil
	case tagSnapMeta:
		return decodeSnapMeta(r, catalog, new(wire.Memo))
	default:
		return nil, fmt.Errorf("engine: unknown message tag %d", tag)
	}
}

// decodeHotHeader reads the Shard/Version/K triple shared by the hot-key
// frames.
func decodeHotHeader(r *wire.Reader) (shard, version, k int, err error) {
	s, err := r.Uvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	v, err := r.Uvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	kk, err := r.Uvarint()
	if err != nil {
		return 0, 0, 0, err
	}
	return int(s), int(v), int(kk), nil
}

func decodeRewrittens(r *wire.Reader, catalog *relation.Catalog, memo *wire.Memo) ([]*rewritten, error) {
	n, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	d := rewriteDecoder{catalog: catalog, memo: memo}
	out := make([]*rewritten, n)
	vals := make([]rewritten, n) // one allocation: a message's rewrites are stored together
	for i := range out {
		if err = d.decodeRewritten(r, &vals[i]); err != nil {
			return nil, err
		}
		out[i] = &vals[i]
	}
	return out, nil
}

// rewriteDecoder decodes consecutive rewritten queries — the rewrites of a
// join message, the entries of a VLQT section — keeping what neighbours
// share: the decode memo, and the previous rewrite's target with the bytes
// it was decoded from. A rewriter sends a group's rewrites with one
// target, so the next rewrite usually repeats those bytes exactly; it then
// takes the same *rewriteTarget instead of decoding a copy, and the
// receiver stores the shape the sender built.
type rewriteDecoder struct {
	catalog   *relation.Catalog
	memo      *wire.Memo
	target    *rewriteTarget
	targetRaw []byte // aliases the reader's input
}

//wire:field dec rewritten Key Orig rewriteTarget
func (d *rewriteDecoder) decodeRewritten(r *wire.Reader, rw *rewritten) error {
	key, err := r.String()
	if err != nil {
		return err
	}
	q, err := wire.DecodeQuery(r, d.catalog, d.memo)
	if err != nil {
		return err
	}
	if d.target == nil || !r.SkipPrefix(d.targetRaw) {
		start := r.Offset()
		if d.target, err = decodeRewriteTarget(r, d.catalog, q); err != nil {
			return err
		}
		d.targetRaw = r.Since(start)
	}
	*rw = rewritten{Key: key, Orig: q, rewriteTarget: d.target}
	return nil
}

//wire:field dec rewriteTarget IndexSide Trigger WantRel WantAttr WantValue
func decodeRewriteTarget(r *wire.Reader, catalog *relation.Catalog, q *query.Query) (*rewriteTarget, error) {
	side, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	// The trigger is the index side's projection: its schema is the plan's.
	var shape *relation.Schema
	if side <= uint64(query.SideRight) {
		shape = q.Projection(query.Side(side))
	}
	trig, err := wire.DecodeTuple(r, catalog, shape)
	if err != nil {
		return nil, err
	}
	wantRel, err := r.String()
	if err != nil {
		return nil, err
	}
	wantAttr, err := r.String()
	if err != nil {
		return nil, err
	}
	wantVal, err := r.Value()
	if err != nil {
		return nil, err
	}
	return &rewriteTarget{
		IndexSide: query.Side(side), Trigger: trig,
		WantRel: wantRel, WantAttr: wantAttr, WantValue: wantVal,
	}, nil
}

//wire:field dec Notification QueryKey Subscriber subscriberIP Values LeftPubT RightPubT DeliveredAt
func decodeNotification(r *wire.Reader, memo *wire.Memo) (Notification, error) {
	var n Notification
	var err error
	if n.QueryKey, err = memo.String(r); err != nil {
		return n, err
	}
	if n.Subscriber, err = memo.String(r); err != nil {
		return n, err
	}
	if n.subscriberIP, err = memo.String(r); err != nil {
		return n, err
	}
	count, err := decodeCount(r)
	if err != nil {
		return n, err
	}
	n.Values = make([]relation.Value, count)
	for i := range n.Values {
		if n.Values[i], err = r.Value(); err != nil {
			return n, err
		}
	}
	if n.LeftPubT, err = r.Varint(); err != nil {
		return n, err
	}
	if n.RightPubT, err = r.Varint(); err != nil {
		return n, err
	}
	if n.DeliveredAt, err = r.Varint(); err != nil {
		return n, err
	}
	return n, nil
}

//wire:field dec MultiQuery Key Subscriber SubscriberIP InsT Text Rels
func decodeMultiQuery(r *wire.Reader, catalog *relation.Catalog) (*query.MultiQuery, error) {
	key, err := r.String()
	if err != nil {
		return nil, err
	}
	sub, err := r.String()
	if err != nil {
		return nil, err
	}
	ip, err := r.String()
	if err != nil {
		return nil, err
	}
	insT, err := r.Varint()
	if err != nil {
		return nil, err
	}
	text, err := r.String()
	if err != nil {
		return nil, err
	}
	first, err := r.String()
	if err != nil {
		return nil, err
	}
	mq, err := query.ParseMulti(catalog, text)
	if err != nil {
		return nil, fmt.Errorf("engine: re-parse multi query: %w", err)
	}
	if mq.Rels()[0].Name() != first {
		mq = mq.Reverse()
		if mq.Rels()[0].Name() != first {
			return nil, fmt.Errorf("engine: orientation marker %q matches neither chain endpoint", first)
		}
	}
	return mq.WithInsT(insT).WithRestoredIdentity(key, sub, ip), nil
}

//wire:field dec mRewritten Key Orig Stage Acc WantRel WantAttr WantValue
func decodeMRewritten(r *wire.Reader, catalog *relation.Catalog) (*mRewritten, error) {
	key, err := r.String()
	if err != nil {
		return nil, err
	}
	mq, err := decodeMultiQuery(r, catalog)
	if err != nil {
		return nil, err
	}
	stage, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	count, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	acc := make([]*relation.Tuple, count)
	for i := range acc {
		if acc[i], err = wire.DecodeTuple(r, catalog, nil); err != nil {
			return nil, err
		}
	}
	wantRel, err := r.String()
	if err != nil {
		return nil, err
	}
	wantAttr, err := r.String()
	if err != nil {
		return nil, err
	}
	wantVal, err := r.Value()
	if err != nil {
		return nil, err
	}
	return &mRewritten{
		Key: key, Orig: mq, Stage: int(stage), Acc: acc,
		WantRel: wantRel, WantAttr: wantAttr, WantValue: wantVal,
	}, nil
}

//wire:field dec targetsEntry Key Targets
func decodeTargetsEntry(r *wire.Reader) (targetsEntry, error) {
	var e targetsEntry
	var err error
	if e.Key, err = r.String(); err != nil {
		return e, err
	}
	n, err := decodeCount(r)
	if err != nil {
		return e, err
	}
	e.Targets = make([]string, n)
	for i := range e.Targets {
		if e.Targets[i], err = r.String(); err != nil {
			return e, err
		}
	}
	return e, nil
}

func decodeTargetsEntries(r *wire.Reader) ([]targetsEntry, error) {
	n, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	out := make([]targetsEntry, n)
	for i := range out {
		if out[i], err = decodeTargetsEntry(r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

//wire:field dec alGroupSection Cond Side Queries
func decodeALGroupSection(r *wire.Reader, catalog *relation.Catalog, memo *wire.Memo) (alGroupSection, error) {
	var g alGroupSection
	var err error
	if g.Cond, err = r.String(); err != nil {
		return g, err
	}
	side, err := r.Uvarint()
	if err != nil {
		return g, err
	}
	g.Side = query.Side(side)
	nq, err := decodeCount(r)
	if err != nil {
		return g, err
	}
	g.Queries = make([]*query.Query, nq)
	for j := range g.Queries {
		if g.Queries[j], err = wire.DecodeQuery(r, catalog, memo); err != nil {
			return g, err
		}
	}
	return g, nil
}

//wire:field dec alMultiSection Cond Queries
func decodeALMultiSection(r *wire.Reader, catalog *relation.Catalog) (alMultiSection, error) {
	var g alMultiSection
	var err error
	if g.Cond, err = r.String(); err != nil {
		return g, err
	}
	nq, err := decodeCount(r)
	if err != nil {
		return g, err
	}
	g.Queries = make([]*query.MultiQuery, nq)
	for j := range g.Queries {
		if g.Queries[j], err = decodeMultiQuery(r, catalog); err != nil {
			return g, err
		}
	}
	return g, nil
}

//wire:field dec alSection Input Groups Multi SentRewrites SentTargets
func decodeALSection(r *wire.Reader, catalog *relation.Catalog, memo *wire.Memo) (alSection, error) {
	var sec alSection
	var err error
	if sec.Input, err = r.String(); err != nil {
		return sec, err
	}
	ng, err := decodeCount(r)
	if err != nil {
		return sec, err
	}
	sec.Groups = make([]alGroupSection, ng)
	for i := range sec.Groups {
		if sec.Groups[i], err = decodeALGroupSection(r, catalog, memo); err != nil {
			return sec, err
		}
	}
	nm, err := decodeCount(r)
	if err != nil {
		return sec, err
	}
	sec.Multi = make([]alMultiSection, nm)
	for i := range sec.Multi {
		if sec.Multi[i], err = decodeALMultiSection(r, catalog); err != nil {
			return sec, err
		}
	}
	nr, err := decodeCount(r)
	if err != nil {
		return sec, err
	}
	sec.SentRewrites = make([]string, nr)
	for i := range sec.SentRewrites {
		if sec.SentRewrites[i], err = r.String(); err != nil {
			return sec, err
		}
	}
	if sec.SentTargets, err = decodeTargetsEntries(r); err != nil {
		return sec, err
	}
	return sec, nil
}

//wire:field dec vqEntry Rw Times
func decodeVQEntry(r *wire.Reader, d *rewriteDecoder) (vqEntry, error) {
	var e vqEntry
	var err error
	e.Rw = new(rewritten)
	if err = d.decodeRewritten(r, e.Rw); err != nil {
		return e, err
	}
	nt, err := decodeCount(r)
	if err != nil {
		return e, err
	}
	e.Times = make([]int64, nt)
	for j := range e.Times {
		if e.Times[j], err = r.Varint(); err != nil {
			return e, err
		}
	}
	return e, nil
}

//wire:field dec vqSection Input Entries
func decodeVQSection(r *wire.Reader, catalog *relation.Catalog, memo *wire.Memo) (vqSection, error) {
	var sec vqSection
	var err error
	if sec.Input, err = r.String(); err != nil {
		return sec, err
	}
	n, err := decodeCount(r)
	if err != nil {
		return sec, err
	}
	sec.Entries = make([]vqEntry, n)
	d := rewriteDecoder{catalog: catalog, memo: memo}
	for i := range sec.Entries {
		if sec.Entries[i], err = decodeVQEntry(r, &d); err != nil {
			return sec, err
		}
	}
	return sec, nil
}

//wire:field dec mqSection Input Rewrites SentTargets
func decodeMQSection(r *wire.Reader, catalog *relation.Catalog) (mqSection, error) {
	var sec mqSection
	var err error
	if sec.Input, err = r.String(); err != nil {
		return sec, err
	}
	n, err := decodeCount(r)
	if err != nil {
		return sec, err
	}
	sec.Rewrites = make([]*mRewritten, n)
	for i := range sec.Rewrites {
		if sec.Rewrites[i], err = decodeMRewritten(r, catalog); err != nil {
			return sec, err
		}
	}
	if sec.SentTargets, err = decodeTargetsEntries(r); err != nil {
		return sec, err
	}
	return sec, nil
}

//wire:field dec vtSection Input Tuples
func decodeVTSection(r *wire.Reader, catalog *relation.Catalog) (vtSection, error) {
	var sec vtSection
	var err error
	if sec.Input, err = r.String(); err != nil {
		return sec, err
	}
	n, err := decodeCount(r)
	if err != nil {
		return sec, err
	}
	sec.Tuples = make([]*relation.Tuple, n)
	for i := range sec.Tuples {
		if sec.Tuples[i], err = wire.DecodeTuple(r, catalog, nil); err != nil {
			return sec, err
		}
	}
	return sec, nil
}

//wire:field dec dvEntry Cond Left Right
func decodeDVEntry(r *wire.Reader, catalog *relation.Catalog) (dvEntry, error) {
	var e dvEntry
	var err error
	if e.Cond, err = r.String(); err != nil {
		return e, err
	}
	nl, err := decodeCount(r)
	if err != nil {
		return e, err
	}
	e.Left = make([]*relation.Tuple, nl)
	for j := range e.Left {
		if e.Left[j], err = wire.DecodeTuple(r, catalog, nil); err != nil {
			return e, err
		}
	}
	nr, err := decodeCount(r)
	if err != nil {
		return e, err
	}
	e.Right = make([]*relation.Tuple, nr)
	for j := range e.Right {
		if e.Right[j], err = wire.DecodeTuple(r, catalog, nil); err != nil {
			return e, err
		}
	}
	return e, nil
}

//wire:field dec dvSection Input Entries
func decodeDVSection(r *wire.Reader, catalog *relation.Catalog) (dvSection, error) {
	var sec dvSection
	var err error
	if sec.Input, err = r.String(); err != nil {
		return sec, err
	}
	n, err := decodeCount(r)
	if err != nil {
		return sec, err
	}
	sec.Entries = make([]dvEntry, n)
	for i := range sec.Entries {
		if sec.Entries[i], err = decodeDVEntry(r, catalog); err != nil {
			return sec, err
		}
	}
	return sec, nil
}

//wire:field dec notifSection Subscriber Batch
func decodeNotifSection(r *wire.Reader, memo *wire.Memo) (notifSection, error) {
	var sec notifSection
	var err error
	if sec.Subscriber, err = r.String(); err != nil {
		return sec, err
	}
	n, err := decodeCount(r)
	if err != nil {
		return sec, err
	}
	sec.Batch = make([]Notification, n)
	for i := range sec.Batch {
		if sec.Batch[i], err = decodeNotification(r, memo); err != nil {
			return sec, err
		}
	}
	return sec, nil
}

//wire:field dec handoffMsg AL VQ MQ VT DV Notifs
func decodeHandoff(r *wire.Reader, catalog *relation.Catalog, memo *wire.Memo) (chord.Message, error) {
	var m handoffMsg
	nAL, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	m.AL = make([]alSection, nAL)
	for i := range m.AL {
		if m.AL[i], err = decodeALSection(r, catalog, memo); err != nil {
			return nil, err
		}
	}
	nVQ, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	m.VQ = make([]vqSection, nVQ)
	for i := range m.VQ {
		if m.VQ[i], err = decodeVQSection(r, catalog, memo); err != nil {
			return nil, err
		}
	}
	nMQ, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	m.MQ = make([]mqSection, nMQ)
	for i := range m.MQ {
		if m.MQ[i], err = decodeMQSection(r, catalog); err != nil {
			return nil, err
		}
	}
	nVT, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	m.VT = make([]vtSection, nVT)
	for i := range m.VT {
		if m.VT[i], err = decodeVTSection(r, catalog); err != nil {
			return nil, err
		}
	}
	nDV, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	m.DV = make([]dvSection, nDV)
	for i := range m.DV {
		if m.DV[i], err = decodeDVSection(r, catalog); err != nil {
			return nil, err
		}
	}
	nN, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	m.Notifs = make([]notifSection, nN)
	for i := range m.Notifs {
		if m.Notifs[i], err = decodeNotifSection(r, memo); err != nil {
			return nil, err
		}
	}
	return m, nil
}

//wire:field dec snapMetaMsg Clock Nodes Down Seq Subs Multi Conds Sink HotEpochs HotCounts
func decodeSnapMeta(r *wire.Reader, catalog *relation.Catalog, memo *wire.Memo) (chord.Message, error) {
	var m snapMetaMsg
	clock, err := r.Varint()
	if err != nil {
		return nil, err
	}
	m.Clock = clock
	if m.Nodes, err = decodeStrings(r); err != nil {
		return nil, err
	}
	if m.Down, err = decodeStrings(r); err != nil {
		return nil, err
	}
	nSeq, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	m.Seq = make([]seqEntry, nSeq)
	for i := range m.Seq {
		if m.Seq[i], err = decodeSeqEntry(r); err != nil {
			return nil, err
		}
	}
	nSubs, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	m.Subs = make([]subsEntry, nSubs)
	for i := range m.Subs {
		if m.Subs[i], err = decodeSubsEntry(r); err != nil {
			return nil, err
		}
	}
	multi, err := r.Uvarint()
	if err != nil {
		return nil, err
	}
	m.Multi = multi != 0
	nConds, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	m.Conds = make([]*query.Query, nConds)
	for i := range m.Conds {
		if m.Conds[i], err = wire.DecodeQuery(r, catalog, memo); err != nil {
			return nil, err
		}
	}
	nSink, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	m.Sink = make([]Notification, nSink)
	for i := range m.Sink {
		if m.Sink[i], err = decodeNotification(r, memo); err != nil {
			return nil, err
		}
	}
	nEp, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	m.HotEpochs = make([]hotEpochEntry, nEp)
	for i := range m.HotEpochs {
		if m.HotEpochs[i], err = decodeHotEpochEntry(r); err != nil {
			return nil, err
		}
	}
	nCt, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	m.HotCounts = make([]hotCountEntry, nCt)
	for i := range m.HotCounts {
		if m.HotCounts[i], err = decodeHotCountEntry(r); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// decodeStrings reads a uvarint-counted list of strings.
func decodeStrings(r *wire.Reader) ([]string, error) {
	n, err := decodeCount(r)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = r.String(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

//wire:field dec seqEntry Key Seq
func decodeSeqEntry(r *wire.Reader) (seqEntry, error) {
	var s seqEntry
	var err error
	if s.Key, err = r.String(); err != nil {
		return s, err
	}
	if s.Seq, err = r.Varint(); err != nil {
		return s, err
	}
	return s, nil
}

//wire:field dec subsEntry Key Inputs
func decodeSubsEntry(r *wire.Reader) (subsEntry, error) {
	var s subsEntry
	var err error
	if s.Key, err = r.String(); err != nil {
		return s, err
	}
	if s.Inputs, err = decodeStrings(r); err != nil {
		return s, err
	}
	return s, nil
}

//wire:field dec hotEpochEntry Input Version K
func decodeHotEpochEntry(r *wire.Reader) (hotEpochEntry, error) {
	var e hotEpochEntry
	var err error
	if e.Input, err = r.String(); err != nil {
		return e, err
	}
	v, err := r.Uvarint()
	if err != nil {
		return e, err
	}
	k, err := r.Uvarint()
	if err != nil {
		return e, err
	}
	e.Version, e.K = int(v), int(k)
	return e, nil
}

//wire:field dec hotCountEntry Input Count WindowStart
func decodeHotCountEntry(r *wire.Reader) (hotCountEntry, error) {
	var c hotCountEntry
	var err error
	if c.Input, err = r.String(); err != nil {
		return c, err
	}
	if c.Count, err = r.Varint(); err != nil {
		return c, err
	}
	if c.WindowStart, err = r.Varint(); err != nil {
		return c, err
	}
	return c, nil
}

// encodedLen is the single source of truth for message sizes: the exact
// length of the message's wire encoding.
func encodedLen(msg chord.Message) int {
	var w wire.Buffer
	if err := EncodeMessage(&w, msg); err != nil {
		return 0
	}
	return w.Len()
}
