package engine

import (
	"slices"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/metrics"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// This file implements the attribute level of the two-level indexing
// scheme: the rewriter role (Sections 4.3.1, 4.3.2, 4.4.1, 4.5). A
// rewriter stores queries in its ALQT and, when an incoming tuple triggers
// them, rewrites the join queries into select-project queries and reindexes
// them at the value level where evaluators compute the join.

// handleQueryIndex stores an arriving query in the local ALQT, grouped by
// equivalent join condition (Section 4.3.5), and revokes the silence the
// bucket granted.
func (st *nodeState) handleQueryIndex(m queryMsg) {
	input := alInput(m.Q.Rel(m.Side).Name(), m.Attr, m.Replica)
	cond := m.Q.ConditionKey()

	st.mu.Lock()
	if st.engine.isRetracted(m.Q.Key()) {
		st.mu.Unlock()
		return
	}
	b := st.alBucketFor(input)
	g := condEntryOf(&b.byCond, cond, func() *queryGroup { return &queryGroup{cond: cond, side: m.Side} })
	// A duplicated query() delivery must not register the query twice —
	// it would inflate the group and double every future rewrite.
	for _, q := range g.queries {
		if q.Key() == m.Q.Key() {
			st.mu.Unlock()
			st.load.AddFiltering(metrics.Rewriter, 1)
			st.engine.net.Traffic().RecordDuplicate(m.Kind())
			return
		}
	}
	g.queries = append(g.queries, m.Q)
	granted := b.takeGrants()
	st.mu.Unlock()

	st.revoke(input, granted)
	st.load.AddFiltering(metrics.Rewriter, 1)
}

// handleInterest sets a query's interest mark on an ALQT bucket and revokes
// the silence the bucket granted; a mark that comes again, or behind its own
// retraction, changes nothing.
func (st *nodeState) handleInterest(m interestMsg) {
	var granted []string
	st.mu.Lock()
	if !st.engine.isRetracted(m.QueryKey) {
		b := st.alBucketFor(m.Input)
		b.mark(m.QueryKey)
		granted = b.takeGrants()
	}
	st.mu.Unlock()
	st.revoke(m.Input, granted)
	st.load.AddFiltering(metrics.Rewriter, 1)
}

// revocation is the grants a handler that gave a bucket a reader took back
// under the lock, to revoke after it.
type revocation struct {
	input    string
	grantees []string
}

// revoke tells each grantee that input's rewriter has a reader now — one
// direct hop each, retried like a notification — and returns once each has
// taken it: the handler that gave the reader revokes before its ack, so before
// the Subscribe that sent it draws insT, or returns. A grantee that is not
// online is passed over: its verdicts went with its state.
func (st *nodeState) revoke(input string, grantees []string) {
	e := st.engine
	for _, key := range grantees {
		e.retry(kindRevoke, st.node, func() bool {
			dst := e.net.NodeByKey(key)
			if dst == nil {
				return true
			}
			if !st.node.DirectSend(revokeMsg{Input: input}, dst) {
				return false
			}
			e.obs.revokes.Inc()
			return true
		})
	}
}

// answer is a rewriter's verdict on an ask from publisher asker: silent,
// granted, while nothing reads the bucket and it has room for the grant;
// active otherwise, and wherever the Section 4.3.6 probes read every tuple.
// The caller holds st.mu.
func (st *nodeState) answer(b *alBucket, asker string) byte {
	if st.engine.probesRewriters() || !b.idle() {
		return verdictActive
	}
	if len(b.grants) >= alGrantsMax && !b.granted(asker) {
		return verdictActive
	}
	b.grant(asker)
	return verdictSilent
}

// outbound is a rewritten-query message bound for one value-level
// identifier, computed once for the group it carries.
type outbound struct {
	target id.ID
	msg    chord.Message
}

// handleALIndex processes a tuple arriving at the attribute level
// (Section 4.3.2): the rewriter finds the triggered queries in one step via
// the two-level ALQT, rewrites each triggered group, and reindexes the
// rewritten queries at the value level — one join message per group, since
// all queries of a group share the same evaluator for a given tuple
// (Section 4.3.5). Tuples are never stored at the attribute level; unless
// publishers index blind, the rewriter sends the tuple on to its attribute's
// value level while a live query reads it there: while the bucket is marked.
// A publisher that asks is answered whether anything reads the bucket at all.
func (st *nodeState) handleALIndex(m *alIndexMsg, ask *alAskMsg) {
	e := st.engine
	t := m.T
	input := e.alKey(t.Relation(), m.Attr, m.Replica).input

	var outBuf [4]outbound
	var trigBuf [16]*query.Query // one group's triggered queries at a time
	outs := outBuf[:0]
	examined := 0

	st.mu.Lock()
	b := st.alBucketFor(input)
	forward := !e.cfg.BlindIndexing && len(b.interest) > 0
	if e.probesRewriters() {
		// Arrival statistics for the Section 4.3.6 strategies; no other
		// strategy ever reads them.
		b.arrivals = append(b.arrivals, t.PubT())
		b.distinct[t.MustValue(m.Attr).Canon()] = struct{}{}
	}

	for _, g := range b.byCond.all() {
		triggered := trigBuf[:0]
		for _, q := range g.queries {
			examined++
			if t.PubT() < q.InsT() {
				continue
			}
			if ok, err := q.FiltersPass(t); err != nil || !ok {
				continue
			}
			triggered = append(triggered, q)
		}
		if len(triggered) == 0 {
			continue
		}
		switch e.cfg.Algorithm {
		case SAI, DAIQ, DAIT:
			if out, ok := st.rewriteGroup(b, g, triggered, t); ok {
				outs = append(outs, out)
			}
		case DAIV:
			outs = append(outs, rewriteGroupV(g, triggered, t, e.cfg.DAIVKeyed)...)
		}
	}
	if ask != nil {
		ask.SetReply(st.answer(b, ask.asker))
	}
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Rewriter, 1+examined)
	st.sendJoins(outs)
	if forward {
		// Its own send: on the join multisend the join would ride its legs too.
		e.obs.vlForwards.Inc()
		var buf [keyScratch]byte
		_ = e.dispatch(st.node, []chord.Deliverable{{
			Target: vlHash(appendVLInput(buf[:0], t.Relation(), m.Attr, t.MustValue(m.Attr))),
			Msg:    &m.vlIndexMsg, // the tuple it received (Section 4.3.2)
		}})
	} else if len(outs) == 0 {
		e.obs.alIndexIdle.Inc()
	}
}

// rewriteGroup rewrites one triggered group for the T1 algorithms
// (Section 4.3.2): the index side of the join condition is evaluated over
// the tuple, the load-distributing side is solved for its attribute
// (valDA), and one join message carrying the group's rewritten queries is
// addressed to the evaluator Successor(Hash(DisR + DisA + valDA)). The
// caller holds st.mu.
func (st *nodeState) rewriteGroup(b *alBucket, g *queryGroup, triggered []*query.Query, t *relation.Tuple) (outbound, bool) {
	// The group shares one join condition, so one target: what the first of
	// its queries wants, and the tuple that triggered it — immutable, and
	// already live as the publication itself. Where the equality has no
	// solution for this tuple, nothing can ever match it. What travels of the
	// trigger is its projection onto each query's shape (wire.Coder.Tuple),
	// which holds the join attribute and the SELECT values, so what a
	// receiver derives from it — the wants and Key(q') — is what is built
	// here, and Key(q') stays derived: no target here spells one.
	tgt := &rewriteTarget{IndexSide: g.side, Trigger: t}
	var err error
	if tgt.Want, tgt.WantValue, err = tgt.wants(triggered[0]); err != nil {
		return outbound{}, false
	}

	var buf [keyScratch]byte
	input := tgt.appendInput(buf[:0])
	if st.engine.storesRewrite(triggered[0]) {
		// Remember where the group's rewrites live, and how recently, so a
		// retraction can purge them (queryGroup.sent).
		g.record(input, t.PubT())
	}

	var projects *relation.Schema // the last shape the trigger was found to have
	// One array for the group, which is stored together.
	m := &joinMsg{Rewrites: make([]rewritten, 0, len(triggered))}
	for _, q := range triggered {
		if shape := q.Projection(g.side); shape != projects {
			if !wire.Projects(t, shape) {
				continue // a trigger that cannot say what the query reads
			}
			projects = shape
		}
		if st.engine.cfg.Algorithm == DAIT {
			// Section 4.4.3: a rewriter never reindexes the same rewritten
			// query twice — evaluators store them.
			key, err := q.RewriteKey(t, tgt.WantValue)
			if err != nil || b.sentRewrites[key] {
				continue
			}
			b.sentRewrites[key] = true
		}
		m.Rewrites = append(m.Rewrites, rewritten{Orig: q, rewriteTarget: tgt})
	}
	if len(m.Rewrites) == 0 {
		return outbound{}, false
	}
	return outbound{target: vlHash(input), msg: m}, true
}

// rewriteGroupV rewrites one triggered group for DAI-V (Section 4.5): the
// evaluator identifier is the value valJC the join condition must take,
// and the message carries the triggering tuple so the evaluator can both
// match and store it. The full tuple is shipped rather than a per-group
// projection so that equivalent groups indexed under different attributes
// agree on the stored form (see DESIGN.md).
//
// With the keyed extension (Section 4.5's VIndex = Key(q) + valJC) every
// query gets its own evaluator identifier: the group splinters into one
// message per query — better load spread and a more expressive scheme, at
// a traffic cost that grows with the number of indexed queries (the thesis
// reports roughly a factor of 250 at 10^4 nodes and 10^5 queries).
func rewriteGroupV(g *queryGroup, triggered []*query.Query, t *relation.Tuple, keyed bool) []outbound {
	vJC, err := triggered[0].EvalSide(g.side, t)
	if err != nil {
		return nil
	}
	if !keyed {
		input := daivInput(vJC)
		return []outbound{{
			target: id.Hash(input),
			msg: joinVMsg{
				Input:   input,
				Cond:    g.cond,
				Side:    g.side,
				Value:   vJC,
				Trigger: t,
				Queries: slices.Clone(triggered), // the caller reuses triggered
			},
		}}
	}
	outs := make([]outbound, 0, len(triggered))
	for _, q := range triggered {
		input := q.Key() + "+" + daivInput(vJC)
		outs = append(outs, outbound{
			target: id.Hash(input),
			msg: joinVMsg{
				Input:   input,
				Cond:    g.cond,
				Side:    g.side,
				Value:   vJC,
				Trigger: t,
				Queries: []*query.Query{q},
			},
		})
	}
	return outs
}

// sendJoins routes rewritten-query messages to their evaluators in one
// multisend. With the JFRT enabled (Section 4.7.1) a remembered evaluator is
// each message's hint, reached in one hop with the others it took — Section
// 4.3.5's grouping applied to direct delivery; misses pay the O(log N) walk,
// and the table learns who took each.
func (st *nodeState) sendJoins(outs []outbound) {
	if len(outs) == 0 {
		return
	}
	e := st.engine
	var batchBuf [4]chord.Deliverable
	var recBuf [4]*chord.Node
	batch := batchBuf[:0]
	for _, o := range outs {
		d := chord.Deliverable{Target: o.target, Msg: o.msg}
		if e.cfg.UseJFRT {
			d.Hint = st.jfrt.lookup(o.target)
		}
		batch = append(batch, d)
	}
	// Best-effort (Section 3.2): an unroutable overlay drops the batch.
	// With retries configured, unacked deliverables are re-sent.
	got, _ := e.send(st.node, batch, recBuf[:0])
	if e.cfg.UseJFRT {
		st.jfrt.learn(batch, got, e.obs.hints)
	}
}
