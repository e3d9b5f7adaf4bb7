package engine

import (
	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/metrics"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// This file implements the value level of the two-level indexing scheme:
// the evaluator role (Sections 4.3.3, 4.3.4, 4.4.2, 4.4.3, 4.5). An
// evaluator is reached through an identifier derived from a join-attribute
// value; it matches rewritten queries against tuples and creates the
// notifications.

// handleJoin processes rewritten queries arriving at an evaluator. The
// reaction is the algorithm's defining choice (Table 4.1):
//
//   - SAI stores the rewritten query (first arrival of its key; repeats
//     only add time information, Section 4.3.3) AND matches it against the
//     stored tuples of the load-distributing relation.
//   - DAI-Q only matches against stored tuples; rewritten queries are never
//     stored, so future tuples cannot double-report (Section 4.4.2). A
//     chain's are (storesRewrite): its stages meet through them alone.
//   - DAI-T only stores the rewritten query; notifications are created when
//     tuples arrive (Section 4.4.3).
//
// A match of a chain's rewrite with relations left sends it a stage on
// (meet) instead of building a notification.
func (st *nodeState) handleJoin(m *joinMsg) {
	e := st.engine
	// A rewrite that arrives behind its query's purge is refused. The
	// message is not written: a duplicated delivery hands it over again.
	rws := e.liveRewrites(m.Rewrites)
	var buf [keyScratch]byte
	var mbuf [matchScratch]match
	ms := mbuf[:0]
	var outs []outbound
	var scatter []chord.Deliverable
	work := 1

	st.mu.Lock()
	for i := 0; i < len(rws); {
		// A rewriter's group shares one identifier (Section 4.3.5): a run
		// bound for one bucket looks it up once.
		run := rws[i : i+sameTargetRun(rws[i:])]
		i += len(run)
		key := appendVLInput(buf[:0], run[0].Want.Rel, run[0].Want.Attr, run[0].WantValue)
		ms, outs = st.joinAt(vlHash(key), run, &work, ms, outs)
		// Hot-key sharding (DESIGN.md §13): count the arrivals, and owe a
		// promoted input's shards what this bucket — shard 0 — stored.
		if e.hotK > 0 {
			scatter = st.hotScatter(key, run, scatter)
		}
	}
	st.mu.Unlock()

	_ = e.dispatch(st.node, scatter)
	st.evaluated(work, ms, outs)
}

// joinAt stores (where the algorithm does) and matches run, rewrites bound
// for the one bucket of identifier h: the input they were derived for, or one
// of its shards' (appendShardInput). It adds the lookups and comparisons it
// made to *work, and appends the matches to ms and a chain's rewrites a stage
// on to outs (meet). The caller holds st.mu.
func (st *nodeState) joinAt(h id.ID, run []rewritten, work *int, ms []match, outs []outbound) ([]match, []outbound) {
	e := st.engine
	alg := e.cfg.Algorithm
	s := st.vl[h]
	qb, tb := s.q, s.t
	for i := range run {
		rw := &run[i]
		if e.storesRewrite(rw.Orig) {
			if qb == nil {
				qb = st.vlqtFor(h, len(run)-i)
			}
			if !addRewrite(&qb.rewrites, rw) {
				*work++
				continue
			}
		}

		if (alg == SAI || alg == DAIQ) && tb != nil {
			// Match the rewritten query against stored tuples that were
			// inserted after the query was posed.
			for _, tt := range tb.tuples.all() {
				*work++
				if matchRewrite(rw, tt) {
					ms, outs = meet(qb, rw, tt, ms, outs)
				}
			}
		}
	}
	return ms, outs
}

// handleVLIndex processes a tuple arriving at the value level
// (Section 4.3.4):
//
//   - SAI matches the tuple against stored rewritten queries AND stores it
//     in the VLTT (necessary for completeness: a rewritten query arriving
//     later must find it).
//   - DAI-Q only stores the tuple; stored rewritten queries are a chain's.
//   - DAI-T only matches; tuples are never stored at the value level.
func (st *nodeState) handleVLIndex(m *vlIndexMsg) {
	t := m.T
	var buf [keyScratch]byte
	key := appendVLInput(buf[:0], t.Relation(), m.Attr, t.MustValue(m.Attr))
	// Hot-key sharding (DESIGN.md §13): count the arrival; a tuple of a
	// promoted input whose content hashes to a foreign shard is relayed
	// there instead of evaluated here. Shard 0 is this bucket.
	if st.engine.hotK > 0 && st.relayHot(key, t) {
		return
	}
	st.tupleAt(m.Kind(), vlHash(key), t)
}

// tupleAt matches t, which arrived as a message of kind, against the
// rewrites stored in the bucket of identifier h — the input t was indexed
// under, or one of its shards' — and stores it there where the algorithm
// does.
func (st *nodeState) tupleAt(kind string, h id.ID, t *relation.Tuple) {
	alg := st.engine.cfg.Algorithm
	var mbuf [matchScratch]match
	ms := mbuf[:0]
	var outs []outbound
	work := 1

	st.mu.Lock()
	s := st.vl[h]
	if s.q != nil {
		for _, rw := range s.q.rewrites.all() {
			work++
			if matchRewrite(rw, t) {
				ms, outs = meet(s.q, rw, t, ms, outs)
			}
		}
	}
	if alg == SAI || alg == DAIQ {
		// Absorb duplicated deliveries: storing the tuple twice would
		// double every future rewritten-query match.
		tb := s.t
		if tb == nil {
			tb = st.vlttFor(h)
		}
		if !addTuple(&tb.tuples, t) {
			st.engine.net.Traffic().RecordDuplicate(kind)
		}
	}
	st.mu.Unlock()

	st.evaluated(work, ms, outs)
}

// evaluated charges an evaluator's arrival, work lookups and comparisons, to
// its load and sends what it yielded: a chain's rewrites a stage on, and the
// notifications.
func (st *nodeState) evaluated(work int, ms []match, outs []outbound) {
	st.load.AddFiltering(metrics.Evaluator, work)
	st.sendJoins(outs)
	st.sendNotifications(notifications(ms))
}

// meet adds to ms or outs what rw yields where it matched t: the match that
// answers its query or, where its chain has relations left, rw a stage on —
// its input recorded on qb, the bucket storing rw, for a retraction's purge
// to follow (handlePurge). The caller holds st.mu.
func meet(qb *vlqtBucket, rw *rewritten, t *relation.Tuple, ms []match, outs []outbound) ([]match, []outbound) {
	if rw.last() {
		return append(ms, rw.match(t)), outs
	}
	if out, input, ok := rw.next(t); ok {
		qb.recordTarget(rw.Orig.Key(), input)
		outs = append(outs, out)
	}
	return ms, outs
}

// storesRewrite reports whether evaluators store q's rewrites: under SAI and
// DAI-T (Table 4.1), and a chain's under DAI-Q too — its stages meet only
// through them.
func (e *Engine) storesRewrite(q *query.Query) bool {
	return e.cfg.Algorithm == SAI || e.cfg.Algorithm == DAIT || q.Arity() > 2
}

// matchRewrite checks a rewritten query against a tuple of the
// load-distributing relation: both reached this identifier through DisR +
// DisA + valDA, but an identifier is only what its input hashes to, so the
// value condition is checked too — t is of Want.Rel and its Want.Attr equals
// WantValue — and a collision costs a probe, never a wrong notification. Then
// the time semantics (pubT >= insT, Section 3.2) and the selection predicates
// on the stored side. The loop that asks collects rw.match(t), and
// notifications projects the batch once the loop is done.
func matchRewrite(rw *rewritten, t *relation.Tuple) bool {
	if v, err := t.Value(rw.Want.Attr); err != nil || v != rw.WantValue || t.Relation() != rw.Want.Rel || t.PubT() < rw.Orig.InsT() {
		return false
	}
	ok, err := rw.Orig.FiltersPass(t)
	return err == nil && ok
}

// match is the match of rw with the value-level tuple t.
func (rw *rewritten) match(t *relation.Tuple) match {
	return match{q: rw.Orig, side: rw.IndexSide, trig: rw.Trigger, other: t, prefix: rw.prefix()}
}

// matchScratch sizes the stack arrays an evaluator's loop collects its
// matches in: a batch that fits allocates only what notifications builds.
const matchScratch = 16

// handleJoinV processes DAI-V's join(q', t') messages (Section 4.5). The
// evaluator owns one join-condition value: it matches the incoming tuple
// against stored tuples of the opposite side with the same condition,
// creates notifications, then stores the tuple. Rewritten queries are not
// stored — symmetry between the two rewriters guarantees the other side's
// future tuples will carry their own query group here.
func (st *nodeState) handleJoinV(m joinVMsg) {
	input := m.Input
	var mbuf [matchScratch]match
	ms := mbuf[:0]
	work := 1

	st.mu.Lock()
	entry := condEntryOf(&st.daivBucketFor(input).byCond, m.Cond, func() *daivEntry { return &daivEntry{cond: m.Cond} })
	for _, tt := range entry.tuples[m.Side.Other()].all() {
		for _, q := range m.Queries {
			work++
			if tt.PubT() < q.InsT() {
				continue
			}
			if ok, err := q.FiltersPass(tt); err != nil || !ok {
				continue
			}
			ms = append(ms, match{q: q, side: m.Side, trig: m.Trigger, other: tt})
		}
	}
	// Store the triggering tuple once, even when equivalent query groups
	// indexed under different attributes deliver it twice.
	addTuple(&entry.tuples[m.Side], m.Trigger)
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Evaluator, work)
	st.sendNotifications(notifications(ms))
}
