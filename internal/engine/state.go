package engine

import (
	"maps"
	"slices"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/lockdep"
	"cqjoin/internal/metrics"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// nodeState is the query-processing state of one overlay node: its role
// tables (ALQT at the attribute level; VLQT and VLTT, one slot of both per
// identifier, and the DAI-V value store at the value level), the stored
// notifications it holds for offline subscribers, the JFRT cache, and its
// load counters. A node plays the rewriter role, the evaluator role, both or
// neither, purely as a function of which identifiers it is responsible for
// (Section 4.1).
//
// The value-level slots are keyed by their identifier Hash(R+A+v); every
// other table by the exact string that was hashed to reach this node (e.g.
// "R+B", "25"). Either way the ring responsibility of every entry can be
// recomputed for key hand-off on joins and leaves. The two-level hash
// structure of Section 4.3.5 is preserved inside each bucket: the first
// level (attribute, or value for DAI-V) is the table key and the second
// level (join condition, tuple content, or rewritten-query key) is the
// bucket's table (tables.go).
type nodeState struct {
	engine *Engine
	node   *chord.Node
	load   metrics.Load

	mu           lockdep.Mutex[nodeStateMu]
	alqt         map[string]*alBucket
	vl           map[id.ID]vlSlot
	vstore       map[string]*daivBucket
	storedNotifs map[string][]Notification
	subIPs       map[string]string // learned subscriber addresses (Section 4.6)
	jfrt         *jfrtCache
	alOwners     alHints              // who took this node's publications at the attribute level (index.go)
	verdicts     []byte               // the rewriters' answers to this node's asks, by alIdent.ord (index.go: verdict); nil before its first
	revokes      uint64               // revocations received: an answer read back after this moved since its ask is discarded
	hot          map[string]*hotInput // the hot-key detector at the inputs this node is the base of (hotkey.go); nil while the layer is off
}

type nodeStateMu struct{} // nodeState.mu's lock class

// A rewriter's verdict on an attribute-level input, as it answers a publisher
// that asks (alAskMsg's reply) and as the publisher keeps it
// (nodeState.verdicts). Soft state like alHints: no snapshot, hand-off or WAL
// record carries it, so a publisher that lost it asks again.
const (
	verdictUnknown byte = iota // never asked, or revoked: the next hinted send asks
	verdictActive              // a query reads the input, or the rewriter would not say: send
	verdictSilent              // none does: skip it until the rewriter revokes
)

// alGrantsMax bounds the publishers one rewriter bucket grants silence to;
// past it the bucket answers active. Its grantees are the nodes that publish
// its relation, and tcp-* publish every relation from all 256 nodes.
const alGrantsMax = 256

// alHintSlots bounds a publisher's memory to the relations it published last:
// a ring whose every node publishes every relation must not keep nodes ×
// relations entries (sim-*'s 131k pairs were +6 % live heap unbounded).
const alHintSlots = 8

// alHints is what a publishing node remembers of its walks: per relation, the
// node that took delivery at each attribute-level identifier, by attribute
// position × replica (nil: not learned), where the relation's next publication
// goes hinted (Engine.dispatchHinted). Soft state like the JFRT: it goes with
// the nodeState, and no snapshot, hand-off or WAL record carries it. Fixed
// slots, the oldest claim overwritten and its slice reused, so the steady state
// allocates nothing; guarded by nodeState.mu.
type alHints struct {
	slots [alHintSlots]struct {
		schema *relation.Schema
		owners []*chord.Node
	}
	next int // the slot the next unseen relation claims
}

// owners returns the slots' slice for schema, nil when it has none.
func (h *alHints) owners(schema *relation.Schema) []*chord.Node {
	for i := range h.slots {
		if h.slots[i].schema == schema {
			return h.slots[i].owners
		}
	}
	return nil
}

// claim returns schema's slice of n owners, taking the oldest slot — cleared —
// when schema has none, and reports whether another relation lost it.
func (h *alHints) claim(schema *relation.Schema, n int) (owners []*chord.Node, evicted bool) {
	if owners = h.owners(schema); owners != nil {
		return owners, false
	}
	slot := &h.slots[h.next]
	h.next = (h.next + 1) % alHintSlots
	evicted = slot.schema != nil
	slot.schema = schema
	if cap(slot.owners) < n {
		slot.owners = make([]*chord.Node, n)
	}
	slot.owners = slot.owners[:n]
	clear(slot.owners)
	return slot.owners, evicted
}

// newNodeState makes the tables every node fills. The DAI-V value store, the
// stored notifications and the learned addresses, which most nodes never
// write, are made at their first write.
func newNodeState(e *Engine, n *chord.Node) *nodeState {
	return &nodeState{
		engine: e,
		node:   n,
		alqt:   make(map[string]*alBucket),
		vl:     make(map[id.ID]vlSlot),
		jfrt:   new(jfrtCache),
	}
}

// alBucket is the slice of the attribute-level query table (ALQT) reached
// through one attribute-level identifier. Queries are grouped by equivalent
// join condition (Section 4.3.5) so one incoming tuple handles a whole
// group at once — a chain's by its whole chain of conditions. When the
// configured strategy probes rewriters (Engine.probesRewriters) the bucket
// also tracks the tuple-arrival statistics of Section 4.3.6: arrival
// timestamps (rate) and distinct values seen (domain size); under any other
// strategy both stay empty.
type alBucket struct {
	input    string // the hashed string, e.g. "R+B" or "R+B#r2"
	byCond   table[*queryGroup]
	arrivals []int64
	distinct map[string]struct{}
	// sentRewrites records the rewritten-query keys this rewriter has
	// already reindexed; DAI-T consults it so a rewritten query is never
	// reindexed twice (Section 4.4.3). Keeping it in the bucket makes it
	// travel with the rewriter role on key hand-off.
	sentRewrites map[string]bool
	// interest holds the keys of the live queries whose rewrites are stored
	// at, or probe tuples stored at, the value level of this bucket's
	// attribute: while any is, the rewriter forwards there (handleALIndex).
	// A set (a repeated mark counts once), nil until the first mark.
	interest map[string]struct{}
	// grants holds the keys of the publishers told that nothing reads the
	// bucket (answer), which skip it from then on: the handler that gives it a
	// reader takes them back (takeGrants) and revokes each before its ack.
	// Sorted, each key once, at most alGrantsMax long but for what merges
	// bring: a slice weighs less than a set, and is what a hand-off writes.
	grants []string
}

func newALBucket(input string) *alBucket {
	return &alBucket{
		input:        input,
		distinct:     make(map[string]struct{}),
		sentRewrites: make(map[string]bool),
	}
}

// alBucketFor returns the ALQT bucket of input, creating it when absent. The
// caller holds st.mu.
func (st *nodeState) alBucketFor(input string) *alBucket {
	b := st.alqt[input]
	if b == nil {
		b = newALBucket(input)
		st.alqt[input] = b
	}
	return b
}

// mark sets query key's interest mark on the bucket and reports whether it
// was not set before.
func (b *alBucket) mark(key string) bool {
	if b.interest == nil {
		b.interest = make(map[string]struct{})
	}
	_, had := b.interest[key]
	b.interest[key] = struct{}{}
	return !had
}

// idle reports whether nothing reads the tuples that reach the bucket: no
// condition group and no interest mark.
func (b *alBucket) idle() bool {
	return b.byCond.len() == 0 && len(b.interest) == 0
}

// grant records that publisher key was told nothing reads the bucket.
func (b *alBucket) grant(key string) {
	if i, found := slices.BinarySearch(b.grants, key); !found {
		b.grants = slices.Insert(b.grants, i, key)
	}
}

// granted reports whether publisher key was told nothing reads the bucket.
func (b *alBucket) granted(key string) bool {
	_, found := slices.BinarySearch(b.grants, key)
	return found
}

// takeGrants empties the bucket's grants and returns their keys.
func (b *alBucket) takeGrants() []string {
	keys := b.grants
	b.grants = nil
	return keys
}

// queryGroup is the second ALQT level: all queries with one equivalent join
// condition, indexed at this bucket under the same index attribute.
type queryGroup struct {
	cond    string
	side    query.Side // side of the condition this bucket's attribute is on: the end a chain is walked from
	queries []*query.Query
	// sent is the group's purge list: each value-level input its stored
	// rewrites went to, with the newest pubT that triggered the group there
	// (nil until the first). A tuple rewrites a query only at or after its
	// insT, so the inputs a retraction of q purges are those whose newest is
	// at least q.InsT(): exactly where q's rewrites are, but for a query with
	// a selection predicate, where a trigger q's predicate refused adds a
	// purge that finds nothing. An input older than every live query's insT
	// is no query's, and goes (prune).
	sent map[string]int64
}

func (g *queryGroup) condKey() string { return g.cond }

// record notes that a tuple published at pubT sent the group's rewrites to
// input, which it makes a string only where the list changes. An input whose
// newest time already reaches every live query's insT keeps that time: a
// later one changes no live query's purges and no prune, and it rewrote no
// query that joins the group after it — whose own first trigger there raises
// the time.
func (g *queryGroup) record(input []byte, pubT int64) {
	if newest, ok := g.sent[string(input)]; ok && (pubT <= newest || newest >= g.newestInsT()) {
		return
	}
	if g.sent == nil {
		g.sent = make(map[string]int64)
	}
	g.sent[string(input)] = pubT
}

// newestInsT returns the highest insT of the group's live queries.
func (g *queryGroup) newestInsT() int64 {
	var newest int64
	for _, q := range g.queries {
		newest = max(newest, q.InsT())
	}
	return newest
}

// retire removes query key from the group and returns, in one array, the
// purges of its stored rewrites; it then prunes the purge list. A group that
// does not hold the query is left as it is.
func (g *queryGroup) retire(key string) []purgeMsg {
	i := slices.IndexFunc(g.queries, func(q *query.Query) bool { return q.Key() == key })
	if i < 0 {
		return nil
	}
	insT := g.queries[i].InsT()
	g.queries = slices.Delete(g.queries, i, i+1)
	n := 0
	for _, newest := range g.sent {
		if newest >= insT {
			n++
		}
	}
	var msgs []purgeMsg
	if n > 0 {
		msgs = make([]purgeMsg, 0, n)
		for input, newest := range g.sent {
			if newest >= insT {
				msgs = append(msgs, purgeMsg{QueryKey: key, Input: input})
			}
		}
	}
	g.prune()
	return msgs
}

// prune drops the inputs whose newest trigger is older than every live
// query's insT: no retraction purges them. A map keeps the room it grew to,
// so an emptied list goes.
func (g *queryGroup) prune() {
	if len(g.queries) == 0 {
		g.sent = nil
		return
	}
	oldest := g.queries[0].InsT()
	for _, q := range g.queries[1:] {
		oldest = min(oldest, q.InsT())
	}
	maps.DeleteFunc(g.sent, func(_ string, newest int64) bool { return newest < oldest })
	if len(g.sent) == 0 {
		g.sent = nil
	}
}

// targets returns the inputs a retraction of q would purge, sorted: the wire
// form of its purge list (targetsEntry).
func (g *queryGroup) targets(q *query.Query) []string {
	var ts []string
	for input, newest := range g.sent {
		if newest >= q.InsT() {
			ts = append(ts, input)
		}
	}
	slices.Sort(ts)
	return ts
}

// vlSlot is the value level reached through one identifier Hash(R+A+v)
// (Section 4.2), and the table holds it under that identifier: the rewritten
// queries waiting for tuples whose attribute A equals v (Section 4.3.3), and
// the tuples stored under A = v awaiting future rewritten queries
// (Section 4.3.4). Each half is made when it first holds something and
// dropped when it empties, the slot when both are: at the end of a run only
// 42 k of sim-steady's 171 k identifiers hold both halves, and 1 k of
// sim-subchurn's 79 k, so one bucket of both would mostly carry an empty
// half. Two inputs that hash alike share a slot, and matchRewrite keeps each
// to its own.
type vlSlot struct {
	q *vlqtBucket
	t *vlttBucket
}

// vlqtBucket is a slot's rewrite half, keyed by rewritten key so a duplicate
// adds nothing (Section 4.3.3, addRewrite). A bucket is one allocation while
// its table fits inline, where its items start: a copy would share the
// original's entries, so noCopy has go vet's copylocks check refuse one.
type vlqtBucket struct {
	noCopy   noCopy
	rewrites table[*rewritten]
	// sent is what few buckets hold, nil until one needs it: by query key, the
	// inputs the bucket's chain rewrites went on to a stage (meet) — where a
	// retraction's purge follows them (handlePurge).
	sent   map[string]map[string]struct{}
	inline [vlqtInline]*rewritten
}

// empty reports whether the bucket holds nothing: no rewrite, and no target
// a chain's purge would follow from it.
func (qb *vlqtBucket) empty() bool {
	return qb.rewrites.len() == 0 && len(qb.sent) == 0
}

// recordTarget remembers that a chain rewrite of query key stored here went
// on to input.
func (qb *vlqtBucket) recordTarget(key, input string) {
	if qb.sent == nil {
		qb.sent = make(map[string]map[string]struct{})
	}
	ts := qb.sent[key]
	if ts == nil {
		ts = make(map[string]struct{})
		qb.sent[key] = ts
	}
	ts[input] = struct{}{}
}

// takeTargets forgets and returns the inputs query key's chain rewrites went
// on to from here.
func (qb *vlqtBucket) takeTargets(key string) map[string]struct{} {
	ts := qb.sent[key]
	delete(qb.sent, key)
	return ts
}

// vlqtInline is how many rewrites a VLQT bucket holds inside itself: at the
// end of a run, 78.6 % of sim-steady's buckets and 82.0 % of sim-subchurn's
// hold at most 3, as do 20.6 % of tcp-steady's and none of tcp-hot's. A
// bucket of 3 fills the 64-byte size class; one of 4 would take 80 bytes.
// TestStoredLayoutsKeepTheirSizeClasses pins it, and the 64 bytes of the
// target its rewrites share.
const vlqtInline = 3

// vlqtFor returns the rewrite half at h, creating it with room for the n
// rewrites about to be merged into it when absent: inside itself up to
// vlqtInline, else in an array of n. The caller holds st.mu.
func (st *nodeState) vlqtFor(h id.ID, n int) *vlqtBucket {
	s := st.vl[h]
	if s.q == nil {
		s.q = new(vlqtBucket)
		s.q.rewrites.items = s.q.inline[:0]
		if n > vlqtInline {
			s.q.rewrites.items = make([]*rewritten, 0, n)
		}
		st.vl[h] = s
	}
	return s.q
}

// vlttBucket is a slot's tuple half, unique by content so a duplicated
// vl-index delivery is absorbed instead of stored twice (addTuple). Like a
// vlqtBucket, it holds its first tuples inline and must not be copied (noCopy).
type vlttBucket struct {
	noCopy noCopy
	tuples table[*relation.Tuple]
	inline [vlttInline]*relation.Tuple
}

// vlttInline is how many tuples a VLTT bucket holds inside itself: at the
// end of a run, 96.5 % of sim-steady's and sim-subchurn's buckets hold at
// most 2, as do 62.8 % of tcp-steady's and 67.7 % of tcp-hot's. A bucket of
// 2 fills the 48-byte size class (TestStoredLayoutsKeepTheirSizeClasses).
const vlttInline = 2

// vlttFor returns the tuple half at h, creating it when absent. The caller
// holds st.mu.
func (st *nodeState) vlttFor(h id.ID) *vlttBucket {
	s := st.vl[h]
	if s.t == nil {
		s.t = new(vlttBucket)
		s.t.tuples.items = s.t.inline[:0]
		st.vl[h] = s
	}
	return s.t
}

// setVL stores s at h, or drops h's slot where both its halves are gone. The
// caller holds st.mu.
func (st *nodeState) setVL(h id.ID, s vlSlot) {
	if s == (vlSlot{}) {
		delete(st.vl, h)
	} else {
		st.vl[h] = s
	}
}

// vlHash returns the value-level identifier of input, R+A+v (appendVLInput)
// or a hot shard's (appendShardInput): id.HashBytes(input), which allocates
// nothing, passed through vlCollide.
func vlHash(input []byte) id.ID { return vlCollide(id.HashBytes(input)) }

// vlCollide is the identity but where a test forces two inputs onto one
// identifier: only _test.go files set it.
var vlCollide = func(h id.ID) id.ID { return h }

// noCopy is a zero-size marker for a struct that points into itself: go
// vet's copylocks check reports a copy of any value holding one.
type noCopy struct{}

func (*noCopy) Lock()   {}
func (*noCopy) Unlock() {}

// daivBucket is DAI-V's value store reached through Hash(valJC): projected
// tuples of both relations grouped by join condition, each side unique by
// content for deduplication when the same tuple arrives through two
// different rewriters of equivalent query groups.
type daivBucket struct {
	input  string // the value canon that was hashed
	byCond table[*daivEntry]
}

type daivEntry struct {
	cond   string
	tuples [2]table[*relation.Tuple] // per query.Side; the sides hold different relations
}

func (e *daivEntry) condKey() string { return e.cond }

// daivBucketFor returns the DAI-V bucket of input, creating it when absent.
// The caller holds st.mu.
func (st *nodeState) daivBucketFor(input string) *daivBucket {
	b := st.vstore[input]
	if b == nil {
		if st.vstore == nil {
			st.vstore = make(map[string]*daivBucket)
		}
		b = &daivBucket{input: input}
		st.vstore[input] = b
	}
	return b
}

// HandleMessage dispatches overlay messages to the role handlers.
func (st *nodeState) HandleMessage(on *chord.Node, msg chord.Message) {
	switch m := msg.(type) {
	case queryMsg:
		st.handleQueryIndex(m)
	case *alIndexMsg:
		st.handleALIndex(m, nil)
	case *alAskMsg:
		st.handleALIndex(m.alIndexMsg, m)
	case *vlIndexMsg:
		st.handleVLIndex(m)
	case *joinMsg:
		st.handleJoin(m)
	case joinVMsg:
		st.handleJoinV(m)
	case joinBatch:
		for _, inner := range m.Msgs {
			st.HandleMessage(on, inner)
		}
	case *notifyMsg:
		st.handleNotify(m)
	case probeMsg:
		// The probe answer is read synchronously by the prober; receiving
		// the message only charges its routing (Section 4.3.6).
	case *unsubMsg:
		st.handleUnsub(m)
	case interestMsg:
		st.handleInterest(m)
	case revokeMsg:
		st.handleRevoke(m)
	case *purgeMsg:
		st.handlePurge(m)
	case handoffMsg:
		st.merge(on, m, true)
	case hotJoinMsg:
		st.handleHotJoin(m)
	case hotVLIndexMsg:
		st.handleHotVLIndex(m)
	}
}

// TransferKeys implements chord.KeyTransferrer: every stored item whose
// ring identifier falls in (lo, hi] moves from this node to node `to`.
// Chord invokes it when `to` joins as this node's predecessor, or when this
// node leaves and hands everything to its successor (lo == hi covers the
// whole ring). The move is a process hand-off's cut and merge done in memory
// (handoff.go); stored notifications addressed to the joining subscriber
// itself are replayed immediately (Section 4.6).
func (st *nodeState) TransferKeys(from, to *chord.Node, lo, hi id.ID) {
	inArc := func(h id.ID) bool { return id.BetweenRightIncl(h, lo, hi) }
	st.engine.state(to).merge(to, st.cut(inArc, true), true)
}

// storedItems counts the queries a rewriter bucket stores.
func (b *alBucket) storedItems() int {
	n := 0
	for _, g := range b.byCond.all() {
		n += len(g.queries)
	}
	return n
}

// storedItems counts the tuples a DAI-V bucket stores.
func (b *daivBucket) storedItems() int {
	n := 0
	for _, e := range b.byCond.all() {
		n += e.tuples[0].len() + e.tuples[1].len()
	}
	return n
}

// evictBefore drops stored tuples older than the cutoff — the sliding
// window of the evaluation chapter — and the buckets that emptied, so a
// stream of mostly-unique values does not leave a bucket behind per value.
// It drops a chain's rewrites, partial matches, whose newest tuple is older
// too. Two-way rewrites and the queries themselves are continuous and never
// expire.
func (st *nodeState) evictBefore(cutoff int64) {
	expired := func(t *relation.Tuple) bool { return t.PubT() < cutoff }
	chainExpired := func(rw *rewritten) bool {
		return rw.Orig.Arity() > 2 && !slices.ContainsFunc(rw.matched(nil), func(t *relation.Tuple) bool { return !expired(t) })
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	for h, s := range st.vl {
		was := s
		if s.t != nil {
			if s.t.tuples.removeIf(expired, tupleHash); s.t.tuples.len() == 0 {
				s.t = nil
			}
		}
		if s.q != nil {
			if s.q.rewrites.removeIf(chainExpired, (*rewritten).keyHash); s.q.empty() {
				s.q = nil
			}
		}
		if s != was {
			st.setVL(h, s)
		}
	}
	for input, b := range st.vstore {
		b.byCond.removeIf(func(e *daivEntry) bool {
			e.tuples[0].removeIf(expired, tupleHash)
			e.tuples[1].removeIf(expired, tupleHash)
			return e.tuples[0].len()+e.tuples[1].len() == 0
		}, condHash[*daivEntry])
		if b.byCond.len() == 0 {
			delete(st.vstore, input)
		}
	}
}
