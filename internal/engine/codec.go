package engine

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// The wire form of every engine message. The in-process simulator passes Go
// values between nodes for speed, but the encodings here are the
// authoritative on-the-wire form: the overlay prices every message by the
// exact length of its encoding (sizeAfter, installed by New), so the byte
// ledger reports what a socket deployment transmits, and the TCP transport
// moves these bytes unchanged.
//
// Each message, section and entry has one walk method listing its fields
// once, in wire order, against a wire.Coder; MessageSize, EncodeMessage and
// DecodeMessage all run that walk, so a struct's size, encoding and decoding
// cannot disagree. Dispatch is two plain switches — walkMessage from type to
// tag, decodeMessage from tag to type — because a static call keeps the
// message and the Coder on the stack: nothing here may reach a walk through
// an interface, a closure or a type parameter. A new message kind is a tag
// constant, a struct with its walk, an arm in each switch, and a fixture in
// codecFixtures with its line in testdata/wire.golden, which pins every byte
// below (tag numbers included) across commits.

// Message type tags. Tags 11 to 13 were the query, tuple and probe of the
// naive indexing schemes of Section 4.1, which are not built; tags 14 and 15
// were a chain's query and join, before a chain was indexed by a query
// message and its stages were joins; tag 20 was hot-recall's (hot-key
// demotion); tags 19 and 21 were hot-migrate's and hot-handoff's, before a
// promotion moved only the rewrite set; tags 17 and 18 were hot-join's and
// hot-vl-index's while those said the promotion's epoch. They stay reserved,
// so a frame holding one decodes as an unknown tag.
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
	_
	_
	_
	_
	_
	tagHandoff
	_
	_
	_
	_
	_
	tagSnapMeta
	tagInterest
	tagALAsk
	tagRevoke
	tagHotJoin
	tagHotVLIndex
)

// EncodeMessage appends the wire form of msg on its own — a send, a WAL
// record, a snapshot section — to w.
func EncodeMessage(w *wire.Buffer, msg chord.Message) error { return encodeAfter(w, msg, nil) }

// encodeAfter appends msg's wire form as it stands behind prev in a batch
// (nil: msg leads its frame, or travels alone) to w, grown to the message's
// exact size first so the appends never reallocate mid-message.
func encodeAfter(w *wire.Buffer, msg, prev chord.Message) error {
	size, _ := sizeAfter(msg, prev)
	w.Grow(size)
	c := wire.Encoder(w)
	c.Prev = carried(prev)
	walkMessage(&c, &msg)
	if err := c.Flush(w); err != nil {
		return fmt.Errorf("engine: encode %T: %w", msg, err)
	}
	return nil
}

// MessageSize returns the exact length EncodeMessage gives msg, or 0 for a
// message type it has no codec for. Exactness is what lets the transport
// encode messages in place behind a length prefix — see transport.Codec.
func MessageSize(msg chord.Message) int {
	size, _ := sizeAfter(msg, nil)
	return size
}

// sizeAfter returns the exact length encodeAfter gives msg behind prev, and
// how many bytes more msg takes in full: what prev says for it; 0 for a
// message with no codec. It is the overlay's sizing function (SetSizer): the
// message's walk run in sizing mode, which adds lengths up and writes no byte,
// so the ledger pays no encode per hop.
func sizeAfter(msg, prev chord.Message) (size, shared int) {
	c := wire.Coder{Prev: carried(prev)}
	walkMessage(&c, &msg)
	if c.Err() != nil {
		return 0, 0
	}
	return c.Size(), c.Shared()
}

// carried returns what the message after msg in a batch need not say again:
// the tuple msg's walk hands to c.Tuple(…, nil), or the query key and input
// it hands to c.Key and c.Input, where it has them.
func carried(msg chord.Message) wire.Carried {
	switch m := msg.(type) {
	case *alIndexMsg:
		return wire.Carried{Tuple: m.T}
	case *alAskMsg:
		return wire.Carried{Tuple: m.T}
	case *vlIndexMsg:
		return wire.Carried{Tuple: m.T}
	case joinVMsg:
		return wire.Carried{Tuple: m.Trigger}
	case hotVLIndexMsg:
		return wire.Carried{Tuple: m.T}
	case *unsubMsg:
		return wire.Carried{Key: m.QueryKey, Input: m.Input}
	case *purgeMsg:
		return wire.Carried{Key: m.QueryKey, Input: m.Input}
	case interestMsg:
		return wire.Carried{Key: m.QueryKey, Input: m.Input}
	}
	return wire.Carried{}
}

// DecodeMessage reads one message encoded by EncodeMessage, resolving
// queries against the catalog. Nothing decoded is shared with any other
// call; a receiver of many messages decodes through a WireCodec, whose memo
// is.
func DecodeMessage(r *wire.Reader, catalog *relation.Catalog) (chord.Message, error) {
	return decodeAfter(r, catalog, new(wire.Memo), nil)
}

// decodeAfter reads one message that encodeAfter wrote behind prev.
func decodeAfter(r *wire.Reader, catalog *relation.Catalog, memo *wire.Memo, prev chord.Message) (chord.Message, error) {
	c := wire.Decoder(r, catalog, memo)
	c.Prev = carried(prev)
	var msg chord.Message
	walkMessage(&c, &msg)
	if err := c.Sync(r); err != nil {
		return nil, err
	}
	return msg, nil
}

// walkMessage walks one message behind its type tag.
func walkMessage(c *wire.Coder, msg *chord.Message) {
	if c.Decoding() {
		*msg = decodeMessage(c)
		return
	}
	switch m := (*msg).(type) {
	case queryMsg:
		c.Tag(tagQuery)
		m.walk(c)
	case *alIndexMsg:
		c.Tag(tagALIndex)
		m.walk(c)
	case *vlIndexMsg:
		c.Tag(tagVLIndex)
		m.walk(c)
	case *joinMsg:
		c.Tag(tagJoin)
		m.walk(c)
	case joinVMsg:
		c.Tag(tagJoinV)
		m.walk(c)
	case joinBatch:
		c.Tag(tagJoinBatch)
		m.walk(c)
	case *notifyMsg:
		c.Tag(tagNotify)
		m.walk(c)
	case probeMsg:
		c.Tag(tagProbe)
		m.walk(c)
	case *unsubMsg:
		c.Tag(tagUnsub)
		m.walk(c)
	case *purgeMsg:
		c.Tag(tagPurge)
		m.walk(c)
	case handoffMsg:
		c.Tag(tagHandoff)
		m.walk(c)
	case hotJoinMsg:
		c.Tag(tagHotJoin)
		m.walk(c)
	case hotVLIndexMsg:
		c.Tag(tagHotVLIndex)
		m.walk(c)
	case snapMetaMsg:
		c.Tag(tagSnapMeta)
		m.walk(c)
	case interestMsg:
		c.Tag(tagInterest)
		m.walk(c)
	case *alAskMsg:
		c.Tag(tagALAsk)
		m.walk(c)
	case revokeMsg:
		c.Tag(tagRevoke)
		m.walk(c)
	default:
		c.Fail(errNoCodec) // not %T of m: formatting it would move every sized message to the heap
	}
}

var errNoCodec = errors.New("no codec for this message type")

// decodeMessage reads a tag and walks a message of the tag's type into
// being.
func decodeMessage(c *wire.Coder) chord.Message {
	switch tag := c.Tag(0); tag {
	case tagQuery:
		var m queryMsg
		m.walk(c)
		return m
	case tagALIndex:
		m := new(alIndexMsg)
		m.walk(c)
		return m
	case tagVLIndex:
		m := new(vlIndexMsg)
		m.walk(c)
		return m
	case tagJoin:
		m := new(joinMsg)
		m.walk(c)
		return m
	case tagJoinV:
		var m joinVMsg
		m.walk(c)
		return m
	case tagJoinBatch:
		var m joinBatch
		m.walk(c)
		return m
	case tagNotify:
		m := new(notifyMsg)
		m.walk(c)
		return m
	case tagProbe:
		var m probeMsg
		m.walk(c)
		return m
	case tagUnsub:
		m := new(unsubMsg)
		m.walk(c)
		return m
	case tagPurge:
		m := new(purgeMsg)
		m.walk(c)
		return m
	case tagHandoff:
		// A node's whole state, decoded once: through a memo of its own, kept
		// out of the receiver's long-lived one. Likewise a snapshot's meta.
		var m handoffMsg
		outer := c.Memo
		c.Memo = new(wire.Memo)
		m.walk(c)
		c.Memo = outer
		return m
	case tagHotJoin:
		var m hotJoinMsg
		m.walk(c)
		return m
	case tagHotVLIndex:
		var m hotVLIndexMsg
		m.walk(c)
		return m
	case tagSnapMeta:
		var m snapMetaMsg
		outer := c.Memo
		c.Memo = new(wire.Memo)
		m.walk(c)
		c.Memo = outer
		return m
	case tagInterest:
		var m interestMsg
		m.walk(c)
		return m
	case tagALAsk:
		m := &alAskMsg{alIndexMsg: new(alIndexMsg)}
		m.walk(c)
		return m
	case tagRevoke:
		var m revokeMsg
		m.walk(c)
		return m
	default:
		c.Fail(fmt.Errorf("engine: unknown message tag %d", tag))
		return nil
	}
}

func (m *queryMsg) walk(c *wire.Coder) {
	c.Query(&m.Q, "")
	c.String(&m.Attr)
	walkSide(c, &m.Side, query.SideRight)
	c.Int(&m.Replica)
}

func (m *alIndexMsg) walk(c *wire.Coder) {
	m.vlIndexMsg.walk(c)
	c.Int(&m.Replica)
}

func (m *alAskMsg) walk(c *wire.Coder) {
	m.alIndexMsg.walk(c)
	c.Interned(&m.asker)
}

func (m *vlIndexMsg) walk(c *wire.Coder) {
	c.Tuple(&m.T, nil)
	c.String(&m.Attr)
}

func (m *joinMsg) walk(c *wire.Coder) { walkRewrites(c, &m.Rewrites) }

func (m *joinVMsg) walk(c *wire.Coder) {
	c.String(&m.Input)
	c.String(&m.Cond)
	walkSide(c, &m.Side, query.SideRight)
	c.Value(&m.Value)
	c.Tuple(&m.Trigger, nil)
	c.Queries(&m.Queries)
}

func (m *joinBatch) walk(c *wire.Coder) {
	wire.Slice(c, &m.Msgs)
	for i := range m.Msgs {
		walkMessage(c, &m.Msgs[i])
	}
}

func (m *notifyMsg) walk(c *wire.Coder) {
	c.Interned(&m.Subscriber) // its notifications, stored, share it
	walkNotifications(c, &m.Batch, m.Subscriber)
}

func (m *probeMsg) walk(c *wire.Coder) { c.String(&m.AttrInput) }

// A retraction, a purge and an interest mark behind a message of the same
// query say its key as "" and their input as what differs from that
// message's (wire.Carried): a rewriter's purge walk names one query to every
// evaluator it fanned out to.
func (m *unsubMsg) walk(c *wire.Coder) {
	keyed := c.Key(&m.QueryKey)
	c.String(&m.Cond)
	c.Input(&m.Input, keyed)
}

func (m *purgeMsg) walk(c *wire.Coder) { c.Input(&m.Input, c.Key(&m.QueryKey)) }

func (m *interestMsg) walk(c *wire.Coder) { c.Input(&m.Input, c.Key(&m.QueryKey)) }

func (m *revokeMsg) walk(c *wire.Coder) { c.String(&m.Input) }

func (m *handoffMsg) walk(c *wire.Coder) {
	wire.Slice(c, &m.AL)
	for i := range m.AL {
		m.AL[i].walk(c)
	}
	wire.Slice(c, &m.VQ)
	for i := range m.VQ {
		m.VQ[i].walk(c)
	}
	walkParentPartialMatches(c, &m.VQ)
	wire.Slice(c, &m.VT)
	for i := range m.VT {
		m.VT[i].walk(c)
	}
	wire.Slice(c, &m.DV)
	for i := range m.DV {
		m.DV[i].walk(c)
	}
	wire.Slice(c, &m.Notifs)
	for i := range m.Notifs {
		m.Notifs[i].walk(c)
	}
	// A hand-off is a frame of its own and up to PR 25 ended here: the AL
	// sections' marks and the retraction memory follow only where there are any.
	if c.AtEnd() || !c.Decoding() && !m.marked() {
		return
	}
	for i := range m.AL {
		c.Strings(&m.AL[i].Interest)
	}
	c.Strings(&m.Retracted)
	// Up to PR 32 it ended here: the AL sections' grants follow only where
	// there are any.
	if c.AtEnd() || !c.Decoding() && !m.granted() {
		return
	}
	for i := range m.AL {
		c.Strings(&m.AL[i].Grants)
	}
	// A build whose chains had sections of their own ended it here: the VQ
	// sections' chain targets follow only where there are any.
	if c.AtEnd() || !c.Decoding() && !m.forwarded() {
		return
	}
	for i := range m.VQ {
		walkTargets(c, &m.VQ[i].SentTargets)
	}
	// A build whose hot-key state was engine-wide ended it here: the
	// detector's sections follow only where there are any.
	if c.AtEnd() || !c.Decoding() && len(m.Hot) == 0 {
		return
	}
	wire.Slice(c, &m.Hot)
	for i := range m.Hot {
		m.Hot[i].walk(c)
	}
}

func (s *hotSection) walk(c *wire.Coder) {
	c.String(&s.Input)
	c.Varint(&s.Count)
	c.Varint(&s.WindowStart)
	c.Bool(&s.Promoted)
}

func (m *hotJoinMsg) walk(c *wire.Coder) {
	c.String(&m.Input)
	c.Int(&m.Shard)
	walkRewrites(c, &m.Rewrites)
}

func (m *hotVLIndexMsg) walk(c *wire.Coder) {
	c.String(&m.Input)
	c.Int(&m.Shard)
	c.Tuple(&m.T, nil)
}

func (m *snapMetaMsg) walk(c *wire.Coder) {
	c.Varint(&m.Clock)
	c.Strings(&m.Nodes)
	c.Strings(&m.Down)
	wire.Slice(c, &m.Seq)
	for i := range m.Seq {
		m.Seq[i].walk(c)
	}
	wire.Slice(c, &m.Subs)
	for i := range m.Subs {
		m.Subs[i].walk(c)
	}
	c.Bool(&m.Multi)
	c.Queries(&m.Conds)
	walkNotifications(c, &m.Sink, "")
	wire.Slice(c, &m.HotEpochs)
	for i := range m.HotEpochs {
		m.HotEpochs[i].walk(c)
	}
	wire.Slice(c, &m.HotCounts)
	for i := range m.HotCounts {
		m.HotCounts[i].walk(c)
	}
	// A snapshot's meta is a frame of its own (durable.walkFramed), and up to
	// PR 20 it ended here, every notification delivered in Sink.
	if c.AtEnd() {
		m.Count = len(m.Sink)
		return
	}
	c.Strings(&m.Delivered)
	c.Int(&m.Count)
	// A build that kept no interest marks ended it here; Marks is written
	// only when set, or when a field behind it is.
	if c.AtEnd() || !c.Decoding() && !m.Marks && len(m.Standing) == 0 && len(m.Retracted) == 0 && len(m.Identities) == 0 {
		return
	}
	c.Bool(&m.Marks)
	// A build that kept no standing query ended it here.
	if c.AtEnd() || !c.Decoding() && len(m.Standing) == 0 && len(m.Retracted) == 0 && len(m.Identities) == 0 {
		return
	}
	c.Queries(&m.Standing)
	// A build that kept a retraction memory in each node section ended it
	// here.
	if c.AtEnd() || !c.Decoding() && len(m.Retracted) == 0 && len(m.Identities) == 0 {
		return
	}
	c.Strings(&m.Retracted)
	// A build that listed its identities as text, in Delivered, ended it here.
	if c.AtEnd() || !c.Decoding() && len(m.Identities) == 0 {
		return
	}
	c.Strings(&m.Identities)
}

func (s *seqEntry) walk(c *wire.Coder) {
	c.String(&s.Key)
	c.Varint(&s.Seq)
}

func (s *subsEntry) walk(c *wire.Coder) {
	c.String(&s.Key)
	c.Strings(&s.Inputs)
}

func (e *hotEpochEntry) walk(c *wire.Coder) {
	c.String(&e.Input)
	c.Int(&e.Version)
	c.Int(&e.K)
}

func (e *hotCountEntry) walk(c *wire.Coder) {
	c.String(&e.Input)
	c.Varint(&e.Count)
	c.Varint(&e.WindowStart)
}

// walkSide walks a join side as an unsigned varint; decoding fails a value
// above max, the largest the field holds: SideRight for a side, sideDerived
// + SideRight for a rewrite's.
func walkSide(c *wire.Coder, s *query.Side, max query.Side) {
	v := uint64(*s)
	c.Uvarint(&v)
	if !c.Decoding() {
		return
	}
	if v > uint64(max) {
		c.Fail(fmt.Errorf("engine: side %d, at most %d here", v, max))
		return
	}
	*s = query.Side(v)
}

// walkRewrites walks the rewritten queries of one message, each after the one
// before. Decoded, they are one array, stored together.
func walkRewrites(c *wire.Coder, rws *[]rewritten) {
	wire.Slice(c, rws)
	var prev *rewritten
	for i := range *rws {
		(*rws)[i].walk(c, prev)
		prev = &(*rws)[i]
	}
}

// sideRepeat in IndexSide's place says the target is the predecessor's;
// sideDerived added to IndexSide says the target is its trigger and what
// wants derives from it; sideChain added to it says so of a chain's rewrite,
// whose prefix goes before the trigger. No build wrote a side above 1 before
// it read the first two, nor one above 4 before it read the third.
const (
	sideRepeat  query.Side = 2
	sideDerived query.Side = 3
	sideChain   query.Side = 5
)

// walk walks one rewritten query after prev, its predecessor in the message
// or section (nil for the first). A rewriter sends a group's rewrites in a
// row — one SQL text, one target, keys that differ only in Key(q) — and what
// a rewrite shares with prev is not said again: an empty key stands for
// Orig.Key() plus prev's Key(q') past its own Orig.Key(), Orig repeats
// prev.Orig's text (Coder.Query), sideRepeat stands for prev's target, which
// the decoded rewrite shares by pointer. Nor is what the receiver derives
// from Orig and the trigger (Section 4.3.2-4.3.3): behind a derived side the
// target is the trigger alone, and an empty key stands for Orig.RewriteKey —
// read before the side, resolved after the trigger. All are decided on
// values, keys as appendKey renders them: a message rebuilt from decoded
// parts encodes the same, and a key held derived or spelled says the same.
// Decoded, a key its target derives is held derived, and a spelled one by a
// target of its own (rewriteTarget.withKey). No prev, no marker
// for prev's. A chain's rewrite is always derived, behind sideChain: it says
// its prefix, then its trigger (rewriteTarget.walk).
func (rw *rewritten) walk(c *wire.Coder, prev *rewritten) {
	prevText := ""
	if prev != nil && c.Err() == nil {
		prevText = prev.Orig.Text()
	}
	var own, prevs [keyScratch]byte // renderings of Key(q'), built only where a rule reads them
	var said []byte                 // the key as it travels; decoding, it aliases the input
	side := sideRepeat
	if !c.Decoding() {
		if prev == nil || !rw.repeats(prev) {
			side = rw.IndexSide
			switch {
			case rw.Orig.Arity() > 2:
				side += sideChain
			case rw.rewriteTarget.derived(rw.Orig):
				side += sideDerived
			}
		}
		said = rw.keySaid(c, side, prev, own[:0], prevs[:0])
	}
	c.Bytes(&said)
	c.Query(&rw.Orig, prevText)
	walkSide(c, &side, sideChain+query.SideRight)
	derived, chain := side >= sideDerived, side >= sideChain
	if !c.Decoding() {
		if side != sideRepeat {
			rw.rewriteTarget.walk(c, rw.Orig, derived, chain)
		}
		return
	}
	if c.Err() != nil {
		return
	}
	if side != sideRepeat && chain != (rw.Orig.Arity() > 2) {
		c.Fail(fmt.Errorf("engine: a rewrite of a query of %d relations behind side %d", rw.Orig.Arity(), side))
		return
	}
	// The key, in full: an empty one behind a side that derives nothing
	// chains — the query's key, then what prev's key adds to prev's query's.
	full := said
	if len(said) == 0 && !derived && prev != nil {
		if suffix, ok := cutKey(prev.appendKey(prevs[:0]), prev.Orig.Key()); ok {
			full = append(append(own[:0], rw.Orig.Key()...), suffix...)
		}
	}
	if len(full) == 0 && !derived || side == sideRepeat && prev == nil {
		c.Fail(errors.New("engine: a rewrite repeats a predecessor it does not have"))
		return
	}
	switch {
	case side == sideRepeat:
		rw.rewriteTarget = prev.rewriteTarget
	case chain:
		rw.rewriteTarget = &rewriteTarget{IndexSide: side - sideChain}
	case derived:
		rw.rewriteTarget = &rewriteTarget{IndexSide: side - sideDerived}
	default:
		rw.rewriteTarget = &rewriteTarget{IndexSide: side}
	}
	if side != sideRepeat {
		rw.rewriteTarget.walk(c, rw.Orig, derived, chain)
	}
	if c.Err() != nil {
		return
	}
	var buf [keyScratch]byte
	k, err := rw.appendDerivedKey(buf[:0])
	switch {
	case len(full) == 0 && err != nil: // derived side, derived key
		c.Fail(fmt.Errorf("engine: a rewrite's derived key: %w", err))
	case len(full) == 0, err == nil && bytes.Equal(full, k) && (derived || rw.rewriteTarget.derived(rw.Orig)):
		rw.rewriteTarget = rw.withKey("") // prev's target may spell prev's
	default:
		rw.rewriteTarget = rw.withKey(string(full))
	}
}

// keySaid returns the bytes that say rw's Key(q') behind side, after prev:
// empty where the receiver derives it (a derived side) or chains it from
// prev's, else the key, in own where it is held derived. It renders prev's
// key into prevs only for the chain rule. A key held derived behind a side
// that is neither derived nor a repeat breaks rewritten's rule, and fails the
// walk.
func (rw *rewritten) keySaid(c *wire.Coder, side query.Side, prev *rewritten, own, prevs []byte) []byte {
	switch {
	case side >= sideDerived:
		if rw.spelledKey() == "" || rw.keyDerived() {
			return nil
		}
		return append(own, rw.spelledKey()...)
	case rw.spelledKey() == "" && side != sideRepeat:
		c.Fail(errors.New("engine: a derived key behind a target that is not"))
		return nil
	}
	key := rw.appendKey(own)
	if suffix, ok := cutKey(key, rw.Orig.Key()); ok && prev != nil {
		if prevSuffix, chained := cutKey(prev.appendKey(prevs), prev.Orig.Key()); chained && bytes.Equal(suffix, prevSuffix) {
			return nil
		}
	}
	return key
}

// cutKey returns key past query key qk, and whether key starts with it.
func cutKey(key []byte, qk string) ([]byte, bool) {
	if len(key) < len(qk) || string(key[:len(qk)]) != qk {
		return nil, false
	}
	return key[len(qk):], true
}

// keyDerived reports whether rw's key is the one its receiver derives,
// Orig.RewriteKey of its trigger and WantValue. Sizing calls it: the key is
// built in a stack buffer.
func (rw *rewritten) keyDerived() bool { return rw.derives(rw.spelledKey()) }

// derives reports whether key is the Key(q') rw's receiver derives.
func (rw *rewritten) derives(key string) bool {
	var buf [keyScratch]byte
	b, err := rw.appendDerivedKey(buf[:0])
	return err == nil && string(b) == key
}

// derived reports whether tg's wants are what its receiver derives from q and
// the trigger (rewriteTarget.wants), value for value.
func (tg *rewriteTarget) derived(q *query.Query) bool {
	if want, ok := q.StageAttr(tg.IndexSide, tg.stage()); !ok || !sameWant(want, tg.Want) {
		return false // a failed wants would allocate its error
	}
	_, val, err := tg.wants(q)
	return err == nil && val == tg.WantValue
}

// repeats reports whether rw may say its target as prev's, sideRepeat, whose
// decoder hands rw prev's decoded target: the two are one target field by
// field, and the trigger goes the same under both queries' shapes — so the
// shapes are one too, which the rewrites of a rewriter's group, sharing one
// target and its whole trigger, need not be.
func (rw *rewritten) repeats(prev *rewritten) bool {
	tg, o := rw.rewriteTarget, prev.rewriteTarget
	shape := tg.shape(rw.Orig)
	return tg.IndexSide == o.IndexSide && samePrefix(tg.prefix(), o.prefix()) && shape.Equal(o.shape(prev.Orig)) &&
		tg.WantValue == o.WantValue && sameWant(tg.Want, o.Want) &&
		wire.SameProjection(tg.Trigger, o.Trigger, shape)
}

// samePrefix reports whether a and b are one prefix: one array's tuples.
func samePrefix(a, b []*relation.Tuple) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// shape returns the schema the trigger of a rewrite of q travels as: the
// plan's projection of the relation it matched.
func (tg *rewriteTarget) shape(q *query.Query) *relation.Schema {
	return q.StageProjection(tg.IndexSide, tg.stage())
}

// walk walks what follows IndexSide in the target of a rewrite of q: a
// chain's prefix, the trigger, then the wants unless they are derived from
// it — as a chain's always are.
func (tg *rewriteTarget) walk(c *wire.Coder, q *query.Query, derived, chain bool) {
	if chain {
		tg.walkPrefix(c, q)
		if !c.Decoding() && !tg.derived(q) {
			c.Fail(errors.New("engine: a chain's rewrite whose wants its trigger does not give"))
		}
	}
	// The trigger goes as its relation's projection: its schema is the plan's.
	c.Tuple(&tg.Trigger, tg.shape(q))
	if !derived {
		if c.Decoding() {
			tg.Want = new(relation.AttrRef) // not the schema's: nothing says it is
		}
		c.String(&tg.Want.Rel)
		c.String(&tg.Want.Attr)
		c.Value(&tg.WantValue)
		return
	}
	if c.Decoding() && c.Err() == nil {
		var err error
		if tg.Want, tg.WantValue, err = tg.wants(q); err != nil {
			c.Fail(fmt.Errorf("engine: a rewrite's derived target: %w", err))
		}
	}
}

// walkPrefix walks a chain's prefix: its count, then each tuple as the
// projection of the relation it matched. Decoding, a prefix as long as the
// chain, or longer, fails: nothing would be left to wait for.
func (tg *rewriteTarget) walkPrefix(c *wire.Coder, q *query.Query) {
	prefix := tg.prefix()
	n := c.Count(len(prefix))
	if c.Decoding() {
		if n+1 >= q.Arity() {
			c.Fail(fmt.Errorf("engine: a prefix of %d tuples for a chain of %d relations", n, q.Arity()))
			return
		}
		if n > 0 {
			prefix = make([]*relation.Tuple, n)
			tg.Extra = &targetExtra{Prefix: prefix}
		}
	}
	for i := range prefix {
		c.Tuple(&prefix[i], q.StageProjection(tg.IndexSide, i+1))
	}
}

// walk walks one notification of a batch bound for subscriber ("" for none: a
// snapshot's Sink), after one of prevKey ("" for the first); a key equal to
// prevKey travels as "". In a lean batch the notification says only what its
// subscriber reads (Section 4.6): its key as the "#n" past subscriber, its
// values and its times. Otherwise it says its key in full, its subscriber (""
// for the batch's), its address and its delivery time, as every build before
// the lean layout did. Decoding, the batch's first key decides which: no
// parent wrote a key that starts with '#'.
//
// Decoding, its values are cut from *slab, for one of the left notifications
// of its batch still to decode (carveValues).
func (n *Notification) walk(c *wire.Coder, subscriber, prevKey string, lean *bool, slab *[]relation.Value, left int) {
	if c.Decoding() {
		n.QueryKey = decodeNotificationKey(c, subscriber, prevKey, lean)
	} else {
		key := n.QueryKey
		switch {
		case key == prevKey:
			key = ""
		case *lean:
			key = key[len(subscriber):]
		case strings.HasPrefix(key, "#"):
			c.Fail(errLeanKey)
		}
		c.String(&key)
	}
	if *lean {
		if c.Decoding() {
			n.Subscriber = subscriber
		}
	} else {
		sub := n.Subscriber
		if !c.Decoding() && sub == subscriber {
			sub = ""
		}
		c.Interned(&sub)
		if c.Decoding() {
			if sub == "" {
				sub = subscriber
			}
			n.Subscriber = sub
		}
		c.Interned(&n.subscriberIP)
	}
	if k := c.Count(len(n.Values)); c.Decoding() {
		n.Values = carveValues(c, slab, k, left)
	}
	for i := range n.Values {
		c.Value(&n.Values[i])
	}
	c.Varint(&n.LeftPubT)
	c.Varint(&n.RightPubT)
	if !*lean {
		c.Varint(&n.DeliveredAt)
	}
}

var errLeanKey = errors.New("engine: a notification key past a subscriber, outside its subscriber's lean batch")

// decodeNotificationKey reads the key of a notification walk, interned
// through the codec's memo: "" for prevKey, a '#'-led one past subscriber —
// the first sets lean, and every other in a lean batch must be one — else the
// key in full.
func decodeNotificationKey(c *wire.Coder, subscriber, prevKey string, lean *bool) string {
	var said []byte
	c.Bytes(&said)
	switch {
	case c.Err() != nil:
		return ""
	case len(said) == 0:
		if prevKey == "" {
			c.Fail(errors.New("engine: a notification repeats a predecessor it does not have"))
		}
		return prevKey
	case said[0] == '#':
		if subscriber == "" || prevKey != "" && !*lean {
			c.Fail(errLeanKey)
			return ""
		}
		*lean = true
		return c.Memo.Joined(subscriber, said)
	case *lean:
		c.Fail(errors.New("engine: a lean batch's notification says its key in full"))
		return ""
	}
	return c.Memo.Joined("", said)
}

// walkNotifications walks a batch bound for subscriber ("" for none).
func walkNotifications(c *wire.Coder, ns *[]Notification, subscriber string) {
	wire.Slice(c, ns)
	lean := !c.Decoding() && leanBatch(*ns, subscriber)
	prevKey := ""
	var slab []relation.Value
	for i := range *ns {
		(*ns)[i].walk(c, subscriber, prevKey, &lean, &slab, len(*ns)-i)
		prevKey = (*ns)[i].QueryKey
	}
}

// carveValues cuts k values off *slab for one of the left notifications of a
// batch still to decode, capped at their own length so an append through one
// never writes into the next. A slab short of k makes way for one sized for
// left notifications like this one, but for no more values than the bytes
// still unread hold (each takes one at least): a batch of equal counts
// decodes into one array, and a forged count sizes nothing.
func carveValues(c *wire.Coder, slab *[]relation.Value, k, left int) []relation.Value {
	s := *slab
	if cap(s)-len(s) < k {
		s = make([]relation.Value, 0, k*min(left, c.Remaining()/k))
	}
	*slab = s[:len(s)+k]
	return s[len(s) : len(s)+k : len(s)+k]
}

// leanBatch reports whether a batch bound for subscriber goes in the lean
// layout (Notification.walk): iff every notification is subscriber's, has a
// key past subscriber + "#" and was not yet delivered. It is decided on
// values, so a decoded batch encodes as it travelled.
func leanBatch(ns []Notification, subscriber string) bool {
	if subscriber == "" {
		return false
	}
	for i := range ns {
		n := &ns[i]
		k := n.QueryKey
		if n.Subscriber != subscriber || n.DeliveredAt != 0 || len(k) <= len(subscriber) || k[len(subscriber)] != '#' || k[:len(subscriber)] != subscriber {
			return false
		}
	}
	return true
}

func (e *targetsEntry) walk(c *wire.Coder) {
	c.String(&e.Key)
	c.Strings(&e.Targets)
}

func walkTargets(c *wire.Coder, es *[]targetsEntry) {
	wire.Slice(c, es)
	for i := range *es {
		(*es)[i].walk(c)
	}
}

func (g *alGroupSection) walk(c *wire.Coder) {
	c.String(&g.Cond)
	walkSide(c, &g.Side, query.SideRight)
	c.Queries(&g.Queries)
}

func (sec *alSection) walk(c *wire.Coder) {
	c.String(&sec.Input)
	wire.Slice(c, &sec.Groups)
	for i := range sec.Groups {
		sec.Groups[i].walk(c)
	}
	walkParentChainGroups(c, &sec.Groups)
	c.Strings(&sec.SentRewrites)
	walkTargets(c, &sec.SentTargets)
}

func (e *vqEntry) walk(c *wire.Coder, prev *rewritten) {
	if c.Decoding() {
		e.Rw = new(rewritten)
	}
	e.Rw.walk(c, prev)
	wire.Slice(c, &e.Times)
	for i := range e.Times {
		c.Varint(&e.Times[i])
	}
}

func walkVQEntries(c *wire.Coder, es *[]vqEntry) {
	wire.Slice(c, es)
	var prev *rewritten
	for i := range *es {
		if c.Err() != nil {
			return // every entry is an allocation: a failed decode makes no more
		}
		(*es)[i].walk(c, prev)
		prev = (*es)[i].Rw
	}
}

func (sec *vqSection) walk(c *wire.Coder) {
	walkVLID(c, &sec.ID)
	walkVQEntries(c, &sec.Entries)
}

func (sec *vtSection) walk(c *wire.Coder) {
	walkVLID(c, &sec.ID)
	c.Tuples(&sec.Tuples)
}

// walkVLID walks the identifier of a value-level section: an empty input,
// which no parent wrote there (DESIGN.md §8.1), then the identifier's bytes,
// which decoding refuses short or long. A parent's section said its input,
// which decoding hashes.
func walkVLID(c *wire.Coder, h *id.ID) {
	var input string
	b := h[:]
	if c.String(&input); input != "" {
		*h = vlHash([]byte(input))
	} else if c.Bytes(&b); len(b) != len(h) {
		c.Fail(fmt.Errorf("engine: a value-level identifier of %d bytes", len(b)))
	} else {
		copy(h[:], b)
	}
}

func (e *dvEntry) walk(c *wire.Coder) {
	c.String(&e.Cond)
	c.Tuples(&e.Left)
	c.Tuples(&e.Right)
}

func (sec *dvSection) walk(c *wire.Coder) {
	c.String(&sec.Input)
	wire.Slice(c, &sec.Entries)
	for i := range sec.Entries {
		sec.Entries[i].walk(c)
	}
}

func (sec *notifSection) walk(c *wire.Coder) {
	c.Interned(&sec.Subscriber)
	walkNotifications(c, &sec.Batch, sec.Subscriber)
}

// Before its stages were joins, a chain had hand-off sections of its own: a
// list of chain groups in each AL section, and a list of partial-match
// sections after the VQ ones. Both lists are said empty; a parent's are read
// into Groups and VQ.

// walkParentChainGroups reads an AL section's chain groups into groups, each
// chain by its own condition and the end its pipeline started at.
func walkParentChainGroups(c *wire.Coder, groups *[]alGroupSection) {
	for range c.Count(0) {
		var cond string
		c.String(&cond) // the pipeline's oriented condition: a chain's own is its text's
		for range c.Count(0) {
			q, side := walkParentChainQuery(c)
			if c.Err() != nil {
				return
			}
			i := slices.IndexFunc(*groups, func(g alGroupSection) bool { return g.Cond == q.ConditionKey() })
			if i < 0 {
				i = len(*groups)
				*groups = append(*groups, alGroupSection{Cond: q.ConditionKey(), Side: side})
			}
			(*groups)[i].Queries = append((*groups)[i].Queries, q)
		}
	}
}

// walkParentChainQuery reads a chain as its own pipeline said it: its
// identity and insertion time, the SQL text, and the relation the pipeline
// started at — the end it is walked from, which it returns.
func walkParentChainQuery(c *wire.Coder) (*query.Query, query.Side) {
	var key, sub, ip, text, first string
	var insT int64
	c.String(&key)
	c.String(&sub)
	c.String(&ip)
	c.Varint(&insT)
	c.String(&text)
	c.String(&first)
	if c.Err() != nil {
		return nil, 0
	}
	q, err := query.Parse(c.Catalog, text)
	if err == nil && q.Type() != query.T1 {
		err = fmt.Errorf("chain %q is not type T1", text)
	}
	var side query.Side
	if err == nil {
		side, err = q.SideFor(first)
	}
	if err != nil {
		c.Fail(fmt.Errorf("engine: a parent's chain: %w", err))
		return nil, 0
	}
	return q.WithInsT(insT).WithRestoredIdentity(key, sub, ip), side
}

// walkParentPartialMatches reads the partial-match sections into vq, each
// partial match a rewrite of its chain stored at its input, with the
// targets its section went on to.
func walkParentPartialMatches(c *wire.Coder, vq *[]vqSection) {
	for range c.Count(0) {
		var input string
		c.String(&input)
		var entries []vqEntry
		for range c.Count(0) {
			rw := walkParentPartialMatch(c)
			if c.Err() != nil {
				return // every partial match is an allocation: a failed decode makes no more
			}
			entries = append(entries, vqEntry{Rw: rw, Times: []int64{rw.Trigger.PubT()}})
		}
		var targets []targetsEntry
		walkTargets(c, &targets)
		h := vlHash([]byte(input))
		i := slices.IndexFunc(*vq, func(s vqSection) bool { return s.ID == h })
		if i < 0 { // where cut, which writes in identifier order, puts it
			i, _ = slices.BinarySearchFunc(*vq, h, func(s vqSection, h id.ID) int { return s.ID.Cmp(h) })
			*vq = slices.Insert(*vq, i, vqSection{ID: h})
		}
		(*vq)[i].Entries = append((*vq)[i].Entries, entries...)
		(*vq)[i].SentTargets = append((*vq)[i].SentTargets, targets...)
	}
}

// walkParentPartialMatch reads one partial match — its key, chain, stage, the
// tuples matched, in the order matched, and its wants — as the rewrite its
// tuples give: walked from the end of the first, the last its trigger.
func walkParentPartialMatch(c *wire.Coder) *rewritten {
	var key, wantRel, wantAttr string
	var stage int
	var acc []*relation.Tuple
	var want relation.Value
	c.String(&key)
	q, _ := walkParentChainQuery(c)
	c.Int(&stage)
	c.Tuples(&acc)
	c.String(&wantRel)
	c.String(&wantAttr)
	c.Value(&want)
	if c.Err() != nil {
		return nil
	}
	if stage < 1 || stage != len(acc) || stage >= q.Arity() {
		c.Fail(fmt.Errorf("engine: a parent's partial match of %d tuples at stage %d of %d", len(acc), stage, q.Arity()))
		return nil
	}
	side, err := q.SideFor(acc[0].Relation())
	if err != nil {
		c.Fail(fmt.Errorf("engine: a parent's partial match: %w", err))
		return nil
	}
	tg := &rewriteTarget{IndexSide: side, Trigger: acc[stage-1], Want: &relation.AttrRef{Rel: wantRel, Attr: wantAttr}, WantValue: want}
	if stage > 1 {
		tg.Extra = &targetExtra{Prefix: acc[: stage-1 : stage-1]}
	}
	if q.Arity() > 2 && !tg.derived(q) {
		c.Fail(errors.New("engine: a parent's partial match whose wants its tuples do not give"))
		return nil
	}
	rw := &rewritten{Orig: q, rewriteTarget: tg}
	if !rw.derives(key) {
		rw.rewriteTarget = tg.withKey(key)
	}
	return rw
}
