package engine

import (
	"cqjoin/internal/chord"
	"cqjoin/internal/query"
	"cqjoin/internal/wire"
)

// Arithmetic wire sizes, mirroring EncodeMessage field for field. The byte
// ledger charges Size() once per hop of every delivery, so the old
// implementation (encode the whole message into a scratch buffer, take its
// length) put a full encode on the hottest path of the simulator.
// wireSize computes the same number without materializing any bytes, and
// wire.SizeTuple/SizeQuery memoize the per-tuple/per-query walks.
// codec_test.go asserts wireSize == len(EncodeMessage) for every message
// type, so the two switches cannot drift silently. Statically, every arm
// here carries a //wire:field size directive that the wiresync analyzer
// (cmd/cqlint, DESIGN.md §9) pairs against the matching enc directive in
// codec.go: deleting a directive, dropping a size term, or reordering
// encoded fields fails the lint job.

// MessageSize returns msg's exact encoded length, or 0 for message types
// EncodeMessage does not know. The exactness contract (pinned by
// codec_test.go and the wiresync directives) is what lets the transport
// encode messages in place behind a length prefix — see
// transport.Sizer.
func MessageSize(msg chord.Message) int { return wireSize(msg) }

// wireSize returns msg's exact encoded length, or 0 for message types
// EncodeMessage does not know (mirroring encodedLen's error case).
func wireSize(msg chord.Message) int {
	// Every tag is a single-byte uvarint (1..22).
	const tagLen = 1
	switch m := msg.(type) {
	//wire:field size queryMsg Q Attr Side Replica
	case queryMsg:
		return tagLen + wire.SizeQuery(m.Q) + wire.SizeString(m.Attr) +
			wire.SizeUvarint(uint64(m.Side)) + wire.SizeUvarint(uint64(m.Replica))
	//wire:field size alIndexMsg T Attr Replica
	case alIndexMsg:
		return tagLen + wire.SizeTuple(m.T) + wire.SizeString(m.Attr) +
			wire.SizeUvarint(uint64(m.Replica))
	//wire:field size vlIndexMsg T Attr
	case vlIndexMsg:
		return tagLen + wire.SizeTuple(m.T) + wire.SizeString(m.Attr)
	//wire:field size joinMsg Rewrites
	case joinMsg:
		n := tagLen + wire.SizeUvarint(uint64(len(m.Rewrites)))
		for _, rw := range m.Rewrites {
			n += sizeRewritten(rw)
		}
		return n
	//wire:field size joinVMsg Input Cond Side Value Trigger Queries
	case joinVMsg:
		n := tagLen + wire.SizeString(m.Input) + wire.SizeString(m.Cond) +
			wire.SizeUvarint(uint64(m.Side)) + wire.SizeValue(m.Value) +
			wire.SizeTuple(m.Trigger) + wire.SizeUvarint(uint64(len(m.Queries)))
		for _, q := range m.Queries {
			n += wire.SizeQuery(q)
		}
		return n
	//wire:field size joinBatch Msgs
	case joinBatch:
		n := tagLen + wire.SizeUvarint(uint64(len(m.Msgs)))
		for _, inner := range m.Msgs {
			n += wireSize(inner)
		}
		return n
	//wire:field size notifyMsg Subscriber Batch
	case notifyMsg:
		n := tagLen + wire.SizeString(m.Subscriber) + wire.SizeUvarint(uint64(len(m.Batch)))
		for _, nt := range m.Batch {
			n += sizeNotification(nt)
		}
		return n
	//wire:field size probeMsg AttrInput
	case probeMsg:
		return tagLen + wire.SizeString(m.AttrInput)
	//wire:field size unsubMsg QueryKey Cond Input
	case unsubMsg:
		return tagLen + wire.SizeString(m.QueryKey) + wire.SizeString(m.Cond) +
			wire.SizeString(m.Input)
	//wire:field size purgeMsg QueryKey Input
	case purgeMsg:
		return tagLen + wire.SizeString(m.QueryKey) + wire.SizeString(m.Input)
	//wire:field size baselineQueryMsg Q Side Input
	case baselineQueryMsg:
		return tagLen + wire.SizeQuery(m.Q) + wire.SizeUvarint(uint64(m.Side)) +
			wire.SizeString(m.Input)
	//wire:field size baselineTupleMsg T Input Side
	case baselineTupleMsg:
		return tagLen + wire.SizeTuple(m.T) + wire.SizeString(m.Input) +
			wire.SizeUvarint(uint64(m.Side))
	//wire:field size baselineProbeMsg Input Rewrites
	case baselineProbeMsg:
		n := tagLen + wire.SizeString(m.Input) + wire.SizeUvarint(uint64(len(m.Rewrites)))
		for _, rw := range m.Rewrites {
			n += sizeRewritten(rw)
		}
		return n
	//wire:field size mQueryMsg MQ Attr Replica
	case mQueryMsg:
		return tagLen + sizeMultiQuery(m.MQ) + wire.SizeString(m.Attr) +
			wire.SizeUvarint(uint64(m.Replica))
	//wire:field size mJoinMsg Rewrites
	case mJoinMsg:
		n := tagLen + wire.SizeUvarint(uint64(len(m.Rewrites)))
		for _, rw := range m.Rewrites {
			n += sizeMRewritten(rw)
		}
		return n
	//wire:field size handoffMsg AL VQ MQ VT DV Notifs
	case handoffMsg:
		n := tagLen + wire.SizeUvarint(uint64(len(m.AL)))
		for _, sec := range m.AL {
			n += sizeALSection(sec)
		}
		n += wire.SizeUvarint(uint64(len(m.VQ)))
		for _, sec := range m.VQ {
			n += sizeVQSection(sec)
		}
		n += wire.SizeUvarint(uint64(len(m.MQ)))
		for _, sec := range m.MQ {
			n += sizeMQSection(sec)
		}
		n += wire.SizeUvarint(uint64(len(m.VT)))
		for _, sec := range m.VT {
			n += sizeVTSection(sec)
		}
		n += wire.SizeUvarint(uint64(len(m.DV)))
		for _, sec := range m.DV {
			n += sizeDVSection(sec)
		}
		n += wire.SizeUvarint(uint64(len(m.Notifs)))
		for _, sec := range m.Notifs {
			n += sizeNotifSection(sec)
		}
		return n
	//wire:field size hotJoinMsg Input Shard Version K Rewrites
	case hotJoinMsg:
		n := tagLen + wire.SizeString(m.Input) + wire.SizeUvarint(uint64(m.Shard)) +
			wire.SizeUvarint(uint64(m.Version)) + wire.SizeUvarint(uint64(m.K)) +
			wire.SizeUvarint(uint64(len(m.Rewrites)))
		for _, rw := range m.Rewrites {
			n += sizeRewritten(rw)
		}
		return n
	//wire:field size hotVLIndexMsg Input Shard Version K T
	case hotVLIndexMsg:
		return tagLen + wire.SizeString(m.Input) + wire.SizeUvarint(uint64(m.Shard)) +
			wire.SizeUvarint(uint64(m.Version)) + wire.SizeUvarint(uint64(m.K)) +
			wire.SizeTuple(m.T)
	//wire:field size hotMigrateMsg Input Version K
	case hotMigrateMsg:
		return tagLen + wire.SizeString(m.Input) + wire.SizeUvarint(uint64(m.Version)) +
			wire.SizeUvarint(uint64(m.K))
	//wire:field size hotRecallMsg Input Shard Version K
	case hotRecallMsg:
		return tagLen + wire.SizeString(m.Input) + wire.SizeUvarint(uint64(m.Shard)) +
			wire.SizeUvarint(uint64(m.Version)) + wire.SizeUvarint(uint64(m.K))
	//wire:field size hotHandoffMsg Input Shard Version K Entries Tuples
	case hotHandoffMsg:
		n := tagLen + wire.SizeString(m.Input) + wire.SizeUvarint(uint64(m.Shard)) +
			wire.SizeUvarint(uint64(m.Version)) + wire.SizeUvarint(uint64(m.K)) +
			wire.SizeUvarint(uint64(len(m.Entries)))
		for _, e := range m.Entries {
			n += sizeVQEntry(e)
		}
		n += wire.SizeUvarint(uint64(len(m.Tuples)))
		for _, t := range m.Tuples {
			n += wire.SizeTuple(t)
		}
		return n
	//wire:field size snapMetaMsg Clock Nodes Down Seq Subs Multi Conds Sink HotEpochs HotCounts
	case snapMetaMsg:
		n := tagLen + wire.SizeVarint(m.Clock) + wire.SizeUvarint(uint64(len(m.Nodes)))
		for _, k := range m.Nodes {
			n += wire.SizeString(k)
		}
		n += wire.SizeUvarint(uint64(len(m.Down)))
		for _, k := range m.Down {
			n += wire.SizeString(k)
		}
		n += wire.SizeUvarint(uint64(len(m.Seq)))
		for _, s := range m.Seq {
			n += sizeSeqEntry(s)
		}
		n += wire.SizeUvarint(uint64(len(m.Subs)))
		for _, s := range m.Subs {
			n += sizeSubsEntry(s)
		}
		n += wire.SizeUvarint(boolBit(m.Multi))
		n += wire.SizeUvarint(uint64(len(m.Conds)))
		for _, q := range m.Conds {
			n += wire.SizeQuery(q)
		}
		n += wire.SizeUvarint(uint64(len(m.Sink)))
		for _, nt := range m.Sink {
			n += sizeNotification(nt)
		}
		n += wire.SizeUvarint(uint64(len(m.HotEpochs)))
		for _, e := range m.HotEpochs {
			n += sizeHotEpochEntry(e)
		}
		n += wire.SizeUvarint(uint64(len(m.HotCounts)))
		for _, c := range m.HotCounts {
			n += sizeHotCountEntry(c)
		}
		return n
	default:
		return 0
	}
}

//wire:field size seqEntry Key Seq
func sizeSeqEntry(s seqEntry) int {
	return wire.SizeString(s.Key) + wire.SizeVarint(s.Seq)
}

//wire:field size subsEntry Key Inputs
func sizeSubsEntry(s subsEntry) int {
	n := wire.SizeString(s.Key) + wire.SizeUvarint(uint64(len(s.Inputs)))
	for _, in := range s.Inputs {
		n += wire.SizeString(in)
	}
	return n
}

//wire:field size hotEpochEntry Input Version K
func sizeHotEpochEntry(e hotEpochEntry) int {
	return wire.SizeString(e.Input) + wire.SizeUvarint(uint64(e.Version)) +
		wire.SizeUvarint(uint64(e.K))
}

//wire:field size hotCountEntry Input Count WindowStart
func sizeHotCountEntry(c hotCountEntry) int {
	return wire.SizeString(c.Input) + wire.SizeVarint(c.Count) +
		wire.SizeVarint(c.WindowStart)
}

//wire:field size rewritten Key Orig rewriteTarget
func sizeRewritten(rw *rewritten) int {
	return wire.SizeString(rw.Key) + wire.SizeQuery(rw.Orig) + sizeRewriteTarget(rw.rewriteTarget)
}

//wire:field size rewriteTarget IndexSide Trigger WantRel WantAttr WantValue
func sizeRewriteTarget(tg *rewriteTarget) int {
	return wire.SizeUvarint(uint64(tg.IndexSide)) + wire.SizeTuple(tg.Trigger) +
		wire.SizeString(tg.WantRel) + wire.SizeString(tg.WantAttr) +
		wire.SizeValue(tg.WantValue)
}

//wire:field size Notification QueryKey Subscriber subscriberIP Values LeftPubT RightPubT DeliveredAt
func sizeNotification(n Notification) int {
	sz := wire.SizeString(n.QueryKey) + wire.SizeString(n.Subscriber) +
		wire.SizeString(n.subscriberIP) + wire.SizeUvarint(uint64(len(n.Values)))
	for _, v := range n.Values {
		sz += wire.SizeValue(v)
	}
	return sz + wire.SizeVarint(n.LeftPubT) + wire.SizeVarint(n.RightPubT) +
		wire.SizeVarint(n.DeliveredAt)
}

//wire:field size MultiQuery Key Subscriber SubscriberIP InsT Text Rels
func sizeMultiQuery(mq *query.MultiQuery) int {
	return wire.SizeString(mq.Key()) + wire.SizeString(mq.Subscriber()) +
		wire.SizeString(mq.SubscriberIP()) + wire.SizeVarint(mq.InsT()) +
		wire.SizeString(mq.Text()) + wire.SizeString(mq.Rels()[0].Name())
}

//wire:field size mRewritten Key Orig Stage Acc WantRel WantAttr WantValue
func sizeMRewritten(rw *mRewritten) int {
	n := wire.SizeString(rw.Key) + sizeMultiQuery(rw.Orig) +
		wire.SizeUvarint(uint64(rw.Stage)) + wire.SizeUvarint(uint64(len(rw.Acc)))
	for _, t := range rw.Acc {
		n += wire.SizeTuple(t)
	}
	return n + wire.SizeString(rw.WantRel) + wire.SizeString(rw.WantAttr) +
		wire.SizeValue(rw.WantValue)
}

//wire:field size targetsEntry Key Targets
func sizeTargetsEntry(e targetsEntry) int {
	n := wire.SizeString(e.Key) + wire.SizeUvarint(uint64(len(e.Targets)))
	for _, t := range e.Targets {
		n += wire.SizeString(t)
	}
	return n
}

//wire:field size alGroupSection Cond Side Queries
func sizeALGroupSection(g alGroupSection) int {
	n := wire.SizeString(g.Cond) + wire.SizeUvarint(uint64(g.Side)) +
		wire.SizeUvarint(uint64(len(g.Queries)))
	for _, q := range g.Queries {
		n += wire.SizeQuery(q)
	}
	return n
}

//wire:field size alMultiSection Cond Queries
func sizeALMultiSection(g alMultiSection) int {
	n := wire.SizeString(g.Cond) + wire.SizeUvarint(uint64(len(g.Queries)))
	for _, mq := range g.Queries {
		n += sizeMultiQuery(mq)
	}
	return n
}

//wire:field size alSection Input Groups Multi SentRewrites SentTargets
func sizeALSection(sec alSection) int {
	n := wire.SizeString(sec.Input) + wire.SizeUvarint(uint64(len(sec.Groups)))
	for _, g := range sec.Groups {
		n += sizeALGroupSection(g)
	}
	n += wire.SizeUvarint(uint64(len(sec.Multi)))
	for _, g := range sec.Multi {
		n += sizeALMultiSection(g)
	}
	n += wire.SizeUvarint(uint64(len(sec.SentRewrites)))
	for _, k := range sec.SentRewrites {
		n += wire.SizeString(k)
	}
	n += wire.SizeUvarint(uint64(len(sec.SentTargets)))
	for _, e := range sec.SentTargets {
		n += sizeTargetsEntry(e)
	}
	return n
}

//wire:field size vqEntry Rw Times
func sizeVQEntry(e vqEntry) int {
	n := sizeRewritten(e.Rw) + wire.SizeUvarint(uint64(len(e.Times)))
	for _, t := range e.Times {
		n += wire.SizeVarint(t)
	}
	return n
}

//wire:field size vqSection Input Entries
func sizeVQSection(sec vqSection) int {
	n := wire.SizeString(sec.Input) + wire.SizeUvarint(uint64(len(sec.Entries)))
	for _, e := range sec.Entries {
		n += sizeVQEntry(e)
	}
	return n
}

//wire:field size mqSection Input Rewrites SentTargets
func sizeMQSection(sec mqSection) int {
	n := wire.SizeString(sec.Input) + wire.SizeUvarint(uint64(len(sec.Rewrites)))
	for _, rw := range sec.Rewrites {
		n += sizeMRewritten(rw)
	}
	n += wire.SizeUvarint(uint64(len(sec.SentTargets)))
	for _, e := range sec.SentTargets {
		n += sizeTargetsEntry(e)
	}
	return n
}

//wire:field size vtSection Input Tuples
func sizeVTSection(sec vtSection) int {
	n := wire.SizeString(sec.Input) + wire.SizeUvarint(uint64(len(sec.Tuples)))
	for _, t := range sec.Tuples {
		n += wire.SizeTuple(t)
	}
	return n
}

//wire:field size dvEntry Cond Left Right
func sizeDVEntry(e dvEntry) int {
	n := wire.SizeString(e.Cond) + wire.SizeUvarint(uint64(len(e.Left)))
	for _, t := range e.Left {
		n += wire.SizeTuple(t)
	}
	n += wire.SizeUvarint(uint64(len(e.Right)))
	for _, t := range e.Right {
		n += wire.SizeTuple(t)
	}
	return n
}

//wire:field size dvSection Input Entries
func sizeDVSection(sec dvSection) int {
	n := wire.SizeString(sec.Input) + wire.SizeUvarint(uint64(len(sec.Entries)))
	for _, e := range sec.Entries {
		n += sizeDVEntry(e)
	}
	return n
}

//wire:field size notifSection Subscriber Batch
func sizeNotifSection(sec notifSection) int {
	n := wire.SizeString(sec.Subscriber) + wire.SizeUvarint(uint64(len(sec.Batch)))
	for _, nt := range sec.Batch {
		n += sizeNotification(nt)
	}
	return n
}
