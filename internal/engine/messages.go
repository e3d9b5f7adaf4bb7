package engine

import (
	"bytes"
	"strconv"
	"sync/atomic"

	"cqjoin/internal/chord"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Message kinds charged to the traffic ledger. The names follow the paper's
// message vocabulary (Sections 4.2-4.6).
const (
	kindQuery    = "query"    // query(q, Id(n), IP(n)) indexing a query at the attribute level
	kindALIndex  = "al-index" // al-index(t, A): tuple at the attribute level
	kindVLIndex  = "vl-index" // vl-index(t, A): tuple at the value level
	kindJoin     = "join"     // join(q'): rewritten query reindexed at the value level
	kindMJoin    = "mjoin"    // join(q') of a chain's rewrites, booked apart (joinMsg.Kind)
	kindNotify   = "notification"
	kindInterest = "interest"       // interest(Key(q), R+A): a query will read tuples at the value level of R.A
	kindRevoke   = "revoke"         // revoke(R+A): a publisher told no query reads R.A must send it again
	kindUnsub    = "unsubscribe"    // a query's retraction at its rewriter, and the purges of its rewrites
	kindProbe    = "strategy-probe" // rate/domain probe of candidate rewriters (Section 4.3.6)
)

// queryMsg indexes query Q at the attribute level under index attribute
// Attr of relation Rel — the message query(q, Id(n), IP(n)) of
// Section 4.3.1. Replica is the attribute-level replica the message is
// addressed to when replication is on.
type queryMsg struct {
	Q       *query.Query
	Side    query.Side // the side whose attribute indexes the query here
	Attr    string     // IndexA(q) as addressed to this rewriter
	Replica int
}

func (queryMsg) Kind() string { return kindQuery }

// alIndexMsg carries tuple T indexed at the attribute level under Attr —
// al-index(t, A) of Section 4.2: the vl-index message the rewriter sends on
// (handleALIndex), and Replica, the rewriter replica. It travels as a
// pointer: a publication's h of them are one array (indexTuple).
type alIndexMsg struct {
	vlIndexMsg
	Replica int
}

func (*alIndexMsg) Kind() string { return kindALIndex }

// alAskMsg is an al-index message that also asks the rewriter whether any
// query reads the attribute: it names the asking publisher, whom the rewriter
// remembers when it answers silent, and the answer comes back in it
// (chord.Replier) — written by a handler that a chaos delay may run after the
// sender has read it, hence atomic. A message of its own, so that the
// al-index messages that ask nothing stay as small as they were.
type alAskMsg struct {
	*alIndexMsg
	asker string
	reply atomic.Uint32
}

// Reply returns the rewriter's verdict, 0 before one.
func (m *alAskMsg) Reply() byte { return byte(m.reply.Load()) }

// SetReply records the rewriter's verdict.
func (m *alAskMsg) SetReply(v byte) { m.reply.Store(uint32(v)) }

// revokeMsg takes back the silence the rewriter of attribute-level input
// Input granted the node it is sent to: a query reads the input now.
type revokeMsg struct {
	Input string
}

func (revokeMsg) Kind() string { return kindRevoke }

// vlIndexMsg carries tuple T indexed at the value level under Attr —
// vl-index(t, A) of Section 4.2. It travels as a pointer: a rewriter sends on
// the one its al-index message embeds, and a blind publisher those of its
// publication's array (indexTuple).
type vlIndexMsg struct {
	T    *relation.Tuple
	Attr string
}

func (*vlIndexMsg) Kind() string { return kindVLIndex }

// interestMsg leaves query QueryKey's interest mark at the rewriter of
// attribute-level input Input: from its ack on that rewriter forwards tuples
// to the value level, until the query's retraction (unsubMsg) takes it back.
type interestMsg struct {
	QueryKey string
	Input    string // the rewriter's ALQT bucket key
}

func (interestMsg) Kind() string { return kindInterest }

// rewritten is one rewritten query q' produced when a tuple triggers query
// Orig at the attribute level (Section 4.3.2): the per-query part, plus the
// target every rewrite of the same triggered group shares by pointer — and a
// decoded one, every rewrite of the group and projection shape. Nothing
// writes through that pointer after the group is built, so a stored rewrite,
// the message that carried it and its siblings can all hold it.
//
// A chain's rewrite (Chapter 7's pipeline generalization of SAI) is one
// whose target waits for a relation past the first its trigger matched: each
// tuple that matches it sends the rest of the query on to the next relation's
// value level, as a rewrite one stage on (next), until the last relation
// builds the notification.
//
// Key(q') per Section 4.3.3 is held derived from Orig and the target
// (appendDerivedKey), as it is on the wire, wherever the target is derived
// (rewriteTarget.derived) and the key is the one derived; only a parent's
// fixture or partial match spells another, and such a rewrite holds a target
// of its own that says it (spelledKey). Read it through appendKey.
type rewritten struct {
	Orig *query.Query
	*rewriteTarget
}

// appendKey appends Key(q') to dst: the spelled key, or the derived one.
func (rw *rewritten) appendKey(dst []byte) []byte {
	if k := rw.spelledKey(); k != "" {
		return append(dst, k...)
	}
	dst, _ = rw.appendDerivedKey(dst) // a derived key renders: the decoder checked
	return dst
}

// appendDerivedKey appends the key rw's receiver derives to dst: a two-way
// rewrite's Orig.RewriteKey, a chain's appendChainKey.
func (rw *rewritten) appendDerivedKey(dst []byte) ([]byte, error) {
	if rw.Orig.Arity() == 2 {
		return rw.Orig.AppendRewriteKey(dst, rw.Trigger, rw.WantValue)
	}
	return appendChainKey(dst, rw.Orig.Key(), rw.prefix(), rw.Trigger), nil
}

// appendChainKey appends the key of a chain's rewrite to dst: Key(q), then
// the publication time of every tuple it has matched, prefix and trigger in
// the order matched — each partial match a rewrite of its own, which a
// repeated delivery adds nothing to.
func appendChainKey(dst []byte, queryKey string, prefix []*relation.Tuple, trigger *relation.Tuple) []byte {
	dst = append(dst, queryKey...)
	for _, t := range prefix {
		dst = strconv.AppendInt(append(dst, '+'), t.PubT(), 10)
	}
	return strconv.AppendInt(append(dst, '+'), trigger.PubT(), 10)
}

// sameKey reports whether rw and o have one Key(q'). Where what the two are
// known to start with — a spelled key, a derived one's query key — already
// differs, neither is built.
func (rw *rewritten) sameKey(o *rewritten) bool {
	a, b := rw.keyStart(), o.keyStart()
	if rw.spelledKey() != "" && o.spelledKey() != "" {
		return a == b
	}
	if n := min(len(a), len(b)); a[:n] != b[:n] {
		return false
	}
	var ka, kb [keyScratch]byte
	return bytes.Equal(rw.appendKey(ka[:0]), o.appendKey(kb[:0]))
}

// keyStart returns what Key(q') starts with unbuilt: the spelled key, or
// where it is derived, the query's key.
func (rw *rewritten) keyStart() string {
	if k := rw.spelledKey(); k != "" {
		return k
	}
	return rw.Orig.Key()
}

// rewriteTarget is what a tuple's rewrites have in common. The
// index-relation attributes of the query have been consumed: of Trigger a
// rewrite needs only the attributes of its query's projection (SELECT values
// and join attribute), and the q' asks for tuples of Want.Rel whose Want.Attr
// equals WantValue. Want is the catalog schema's one AttrRef for the
// attribute (query.Query.StageAttr), which every target derived from a query
// shares; a decoded target that is not derived (a parent's) holds one of its
// own. A rewriter's Trigger is the tuple it received, for every
// shape of its group; the wire says its projection onto each rewrite's
// shape, and a decoded Trigger is that projection. A chain's rewrite past
// its first stage also carries a prefix, the tuples matched before Trigger in
// the order matched, said on the wire as Trigger is. It and a spelled key are
// what few targets hold, behind Extra, nil elsewhere. Pointers all, bar the
// value, the target fills the 64-byte size class; two want strings took it to
// the 96.
type rewriteTarget struct {
	IndexSide query.Side        // the side consumed by the first trigger: the end of the chain it walks from
	Trigger   *relation.Tuple   // the triggering tuple, or its projection
	Want      *relation.AttrRef // DisR(q) and DisA(q)
	WantValue relation.Value    // valDA(q, t)
	Extra     *targetExtra
}

// targetExtra is what few rewrite targets carry: a chain's prefix past its
// first stage, and a spelled Key(q'), which makes the target its rewrite's
// own.
type targetExtra struct {
	Prefix []*relation.Tuple
	Key    string
}

// prefix returns the tuples the target's rewrites matched before Trigger.
func (tg *rewriteTarget) prefix() []*relation.Tuple {
	if tg.Extra == nil {
		return nil
	}
	return tg.Extra.Prefix
}

// spelledKey returns the Key(q') the target's rewrite spells, "" where it is
// held derived.
func (tg *rewriteTarget) spelledKey() string {
	if tg.Extra == nil {
		return ""
	}
	return tg.Extra.Key
}

// withKey returns tg spelling Key(q') as key ("": derived): tg itself where
// it does, else a copy.
func (tg *rewriteTarget) withKey(key string) *rewriteTarget {
	if tg.spelledKey() == key {
		return tg
	}
	c := *tg
	c.Extra = nil
	if prefix := tg.prefix(); key != "" || prefix != nil {
		c.Extra = &targetExtra{Prefix: prefix, Key: key}
	}
	return &c
}

// stage returns how many of its query's relations the target's rewrites
// have matched: Trigger's, and the prefix's.
func (tg *rewriteTarget) stage() int { return 1 + len(tg.prefix()) }

// matched appends the tuples the target's rewrites have matched to dst, in
// the order matched: the prefix, then Trigger.
func (tg *rewriteTarget) matched(dst []*relation.Tuple) []*relation.Tuple {
	return append(append(dst, tg.prefix()...), tg.Trigger)
}

// wants computes what a rewrite of q triggered by tg.Trigger asks for
// (Section 4.3.2): the trigger's side of the link its stage crosses is
// evaluated over it, and the other side, a single attribute of the next
// relation, is solved for the value it must take. It fails where the side
// has several attributes or the equality no solution (e.g. c/x = 0).
func (tg *rewriteTarget) wants(q *query.Query) (want *relation.AttrRef, val relation.Value, err error) {
	return q.StageWant(tg.IndexSide, tg.stage(), tg.Trigger)
}

// appendInput appends the value-level input the target's rewrites wait at to
// b: what vlHash makes their identifier of.
func (tg *rewriteTarget) appendInput(b []byte) []byte {
	return appendVLInput(b, tg.Want.Rel, tg.Want.Attr, tg.WantValue)
}

// last reports whether a match of rw completes its query: its target waits
// for the query's last relation.
func (rw *rewritten) last() bool { return rw.stage()+1 == rw.Orig.Arity() }

// next returns, where tuple t matched rw, rw one stage on: bound for the
// next relation's value level in a join of its own, triggered by t, with
// rw's prefix and trigger its prefix; and the input it is bound for. It is
// false where t's link has no solution.
func (rw *rewritten) next(t *relation.Tuple) (out outbound, input string, ok bool) {
	prefix := rw.matched(make([]*relation.Tuple, 0, rw.stage()))
	tg := &rewriteTarget{IndexSide: rw.IndexSide, Trigger: t, Extra: &targetExtra{Prefix: prefix}}
	var err error
	if tg.Want, tg.WantValue, err = tg.wants(rw.Orig); err != nil {
		return outbound{}, "", false
	}
	var buf [keyScratch]byte
	key := tg.appendInput(buf[:0])
	m := &joinMsg{Rewrites: []rewritten{{Orig: rw.Orig, rewriteTarget: tg}}}
	return outbound{target: vlHash(key), msg: m}, string(key), true
}

// sameTarget reports whether rw and o wait at the same value-level
// identifier.
func (rw *rewritten) sameTarget(o *rewritten) bool {
	return rw.rewriteTarget == o.rewriteTarget || rw.WantValue == o.WantValue && sameWant(rw.Want, o.Want)
}

// sameWant reports whether a and b name one relation and attribute.
func sameWant(a, b *relation.AttrRef) bool { return a == b || *a == *b }

// sameTargetRun counts the rewrites at the head of rws that wait where the
// first does.
func sameTargetRun(rws []rewritten) int {
	n := 1
	for n < len(rws) && rws[n].sameTarget(&rws[n-1]) {
		n++
	}
	return n
}

// joinMsg reindexes one or more rewritten queries that share the same
// evaluator — the join(q') message of Section 4.3.2, grouped per
// Section 4.3.5 so similar queries travel in one message. It travels as a
// pointer, and its rewrites are one array: a rewriter's group, or a decoded
// join, beside the target they share. An evaluator stores &Rewrites[i].
type joinMsg struct {
	Rewrites []rewritten
}

// Kind books a join of a chain's rewrites apart from a two-way one, so the
// ledger shows what the pipeline's stages cost (X7.1).
func (m *joinMsg) Kind() string {
	if len(m.Rewrites) > 0 && m.Rewrites[0].Orig.Arity() > 2 {
		return kindMJoin
	}
	return kindJoin
}

// joinVMsg is DAI-V's join(q', t') message (Section 4.5): the projection
// Trigger of the triggering tuple plus the group of queries (equal join
// conditions) it triggered. Value is valJC — the value both sides of the
// join condition must take. Input is the exact string hashed to pick the
// evaluator: plain DAI-V uses Value alone; the keyed extension prefixes
// Key(q), trading grouping (and so traffic) for per-query load spread.
type joinVMsg struct {
	Input   string
	Cond    string // canonical join condition, the grouping key
	Side    query.Side
	Value   relation.Value
	Trigger *relation.Tuple
	Queries []*query.Query // the triggered group, all with condition Cond
}

func (joinVMsg) Kind() string { return kindJoin }

// joinBatch grouped several value-level messages bound for one recipient node
// into a single physical message, the JFRT's direct delivery before a hinted
// multisend leg carried such a group as one run. No sender makes it now; it
// decodes and is handled because a parent cqjoind with -jfrt on logged its
// deliveries to the WAL (Server.DeliverLocal), and replay hands them back.
type joinBatch struct {
	Msgs []chord.Message
}

func (joinBatch) Kind() string { return kindJoin }

// notifyMsg delivers a batch of notifications for one subscriber; multiple
// notifications for the same receiver are grouped in one message
// (Section 4.6). It travels as a pointer: an evaluation's messages, one per
// subscriber, are one array (sendNotifications).
type notifyMsg struct {
	Subscriber string
	Batch      []Notification
}

func (*notifyMsg) Kind() string { return kindNotify }

// probeMsg asks a candidate rewriter for its observed tuple-arrival rate
// and value-domain size under one attribute key (Section 4.3.6). The
// simulator reads the answer synchronously; the message exists to charge
// the probe's routing cost.
type probeMsg struct {
	AttrInput string
}

func (probeMsg) Kind() string { return kindProbe }
