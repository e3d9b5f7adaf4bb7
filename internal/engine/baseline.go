package engine

import (
	"fmt"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/metrics"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// This file implements the three naive indexing schemes Section 4.1 uses
// to motivate two-level indexing. Each concentrates the query-processing
// load on a bounded set of nodes:
//
//   - BaselineRelation: one node per relation name (Hash(R)) stores all of
//     that relation's tuples and every query referencing it; the two sites
//     of a join exchange probe messages.
//   - BaselineAttribute: one node per relation+attribute (Hash(R+A)) — a
//     better spread, but still bounded by the number of schema attributes.
//   - BaselinePair: one node per join-attribute pair (Hash(R.A+S.B))
//     evaluates the join entirely locally, but every inserted tuple must
//     reach all pair combinations of its attributes with the attributes of
//     every other relation.

// baselineQueryMsg indexes a query at one naive site.
type baselineQueryMsg struct {
	Q     *query.Query
	Side  query.Side // side of the join the destination site covers (pair: SideLeft)
	Input string     // the hashed site key
}

func (baselineQueryMsg) Kind() string { return kindQuery }

// baselineTupleMsg stores a tuple at one naive site.
type baselineTupleMsg struct {
	T     *relation.Tuple
	Input string
	Side  query.Side // pair baseline: which side of the pair key t's relation is
}

func (baselineTupleMsg) Kind() string { return kindALIndex }

// baselineProbeMsg carries rewritten probes from the triggered site to the
// opposite relation's site, where stored tuples complete the join.
type baselineProbeMsg struct {
	Rewrites []rewritten
	Input    string // destination site key
}

func (baselineProbeMsg) Kind() string { return kindBaseline }

// pairInput is the BaselinePair site key for a join-attribute pair,
// oriented left-to-right as written in the query.
func pairInput(leftRel, leftAttr, rightRel, rightAttr string) string {
	return leftRel + "." + leftAttr + "+" + rightRel + "." + rightAttr
}

// indexQueryBaseline routes a query to its naive site(s).
func (e *Engine) indexQueryBaseline(from *chord.Node, q *query.Query) error {
	switch e.cfg.Algorithm {
	case BaselineRelation:
		return e.dispatch(from, []chord.Deliverable{
			{Target: id.Hash(q.Rel(query.SideLeft).Name()), Msg: baselineQueryMsg{Q: q, Side: query.SideLeft, Input: q.Rel(query.SideLeft).Name()}},
			{Target: id.Hash(q.Rel(query.SideRight).Name()), Msg: baselineQueryMsg{Q: q, Side: query.SideRight, Input: q.Rel(query.SideRight).Name()}},
		})
	case BaselineAttribute:
		la, err := q.SingleAttr(query.SideLeft)
		if err != nil {
			return err
		}
		ra, err := q.SingleAttr(query.SideRight)
		if err != nil {
			return err
		}
		li := q.Rel(query.SideLeft).Name() + "+" + la
		ri := q.Rel(query.SideRight).Name() + "+" + ra
		return e.dispatch(from, []chord.Deliverable{
			{Target: id.Hash(li), Msg: baselineQueryMsg{Q: q, Side: query.SideLeft, Input: li}},
			{Target: id.Hash(ri), Msg: baselineQueryMsg{Q: q, Side: query.SideRight, Input: ri}},
		})
	case BaselinePair:
		la, err := q.SingleAttr(query.SideLeft)
		if err != nil {
			return err
		}
		ra, err := q.SingleAttr(query.SideRight)
		if err != nil {
			return err
		}
		input := pairInput(q.Rel(query.SideLeft).Name(), la, q.Rel(query.SideRight).Name(), ra)
		_, _, err = from.Send(baselineQueryMsg{Q: q, Side: query.SideLeft, Input: input}, id.Hash(input))
		return err
	default:
		return fmt.Errorf("engine: %v is not a baseline", e.cfg.Algorithm)
	}
}

// indexTupleBaseline routes a tuple to its naive site(s).
func (e *Engine) indexTupleBaseline(from *chord.Node, t *relation.Tuple) error {
	switch e.cfg.Algorithm {
	case BaselineRelation:
		_, _, err := from.Send(baselineTupleMsg{T: t, Input: t.Relation()}, id.Hash(t.Relation()))
		return err
	case BaselineAttribute:
		attrs := t.Schema().Attrs()
		batch := make([]chord.Deliverable, 0, len(attrs))
		for _, a := range attrs {
			input := t.Relation() + "+" + a
			batch = append(batch, chord.Deliverable{Target: id.Hash(input), Msg: baselineTupleMsg{T: t, Input: input}})
		}
		return e.dispatch(from, batch)
	case BaselinePair:
		// "New tuples would have to reach all pair combinations of the
		// attributes of different relations of the schema, to guarantee
		// completeness" (Section 4.1).
		var batch []chord.Deliverable
		for _, a := range t.Schema().Attrs() {
			for _, other := range e.catalog.Schemas() {
				if other.Name() == t.Relation() {
					continue
				}
				for _, b := range other.Attrs() {
					li := pairInput(t.Relation(), a, other.Name(), b)
					ri := pairInput(other.Name(), b, t.Relation(), a)
					batch = append(batch,
						chord.Deliverable{Target: id.Hash(li), Msg: baselineTupleMsg{T: t, Input: li, Side: query.SideLeft}},
						chord.Deliverable{Target: id.Hash(ri), Msg: baselineTupleMsg{T: t, Input: ri, Side: query.SideRight}},
					)
				}
			}
		}
		return e.dispatch(from, batch)
	default:
		return fmt.Errorf("engine: %v is not a baseline", e.cfg.Algorithm)
	}
}

// handleBaselineQuery stores a query at a naive site. Relation and
// attribute sites keep queries in the ALQT (grouped by condition exactly as
// the real rewriters do); pair sites keep them in the pair store.
func (st *nodeState) handleBaselineQuery(m baselineQueryMsg) {
	cond := m.Q.ConditionKey()
	st.mu.Lock()
	var groups *condTable[*queryGroup]
	if st.engine.cfg.Algorithm == BaselinePair {
		groups = &st.pairBucketFor(m.Input).byCond
	} else {
		groups = &st.alBucketFor(m.Input).byCond
	}
	g := groups.getOrAdd(cond, func() *queryGroup { return &queryGroup{cond: cond, side: m.Side} })
	g.queries = append(g.queries, m.Q)
	st.mu.Unlock()
	st.load.AddFiltering(metrics.Rewriter, 1)
	st.load.AddStorage(metrics.Rewriter, 1)
}

// handleBaselineTuple stores an arriving tuple at a naive site, triggers
// the locally indexed queries and — for the relation and attribute schemes
// — probes the opposite site where the other relation's tuples live. Pair
// sites hold both relations and evaluate locally.
func (st *nodeState) handleBaselineTuple(m baselineTupleMsg) {
	if st.engine.cfg.Algorithm == BaselinePair {
		st.handlePairTuple(m)
		return
	}
	t := m.T
	examined := 0
	var outs []outbound

	st.mu.Lock()
	// Store the tuple so probes from the opposite site can match it.
	st.vlttFor(m.Input).tuples.add(t)

	if b := st.alqt[m.Input]; b != nil {
		for _, g := range b.byCond.all() {
			var triggered []*query.Query
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
			vSide, err := triggered[0].EvalSide(g.side, t)
			if err != nil {
				continue
			}
			other := g.side.Other()
			var dstInput string
			if st.engine.cfg.Algorithm == BaselineRelation {
				dstInput = triggered[0].Rel(other).Name()
			} else {
				oa, err := triggered[0].SingleAttr(other)
				if err != nil {
					continue
				}
				dstInput = triggered[0].Rel(other).Name() + "+" + oa
			}
			tgt := &rewriteTarget{IndexSide: g.side, Trigger: t, Want: &relation.AttrRef{Rel: triggered[0].Rel(other).Name()}, WantValue: vSide}
			rws := make([]rewritten, 0, len(triggered))
			for _, q := range triggered {
				rws = append(rws, rewritten{
					Key:           q.Key() + "@" + relation.N(float64(t.PubT())).Canon(),
					Orig:          q,
					rewriteTarget: tgt,
				})
			}
			outs = append(outs, outbound{input: dstInput, msg: baselineProbeMsg{Rewrites: rws, Input: dstInput}})
		}
	}
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Rewriter, 1+examined)
	st.load.AddStorage(metrics.Evaluator, 1)
	for _, o := range outs {
		// Sites are few and fixed; each probe is a single routed message.
		_, _, _ = st.node.Send(o.msg, id.Hash(o.input))
	}
}

// handleBaselineProbe matches probe rewrites against the tuples stored at
// this naive site. The probe carries the value the opposite side's
// expression took; any stored tuple whose own side evaluates to the same
// value joins with it.
func (st *nodeState) handleBaselineProbe(m baselineProbeMsg) {
	var mbuf [matchScratch]match
	ms := mbuf[:0]
	work := 1

	st.mu.Lock()
	tb := st.vltt[m.Input]
	if tb != nil {
		for i := range m.Rewrites {
			rw := &m.Rewrites[i]
			other := rw.IndexSide.Other()
			for _, tt := range tb.tuples.all() {
				work++
				if tt.Relation() != rw.Want.Rel {
					continue
				}
				if tt.PubT() < rw.Orig.InsT() {
					continue
				}
				v, err := rw.Orig.EvalSide(other, tt)
				if err != nil || !v.Equal(rw.WantValue) {
					continue
				}
				if ok, err := rw.Orig.FiltersPass(tt); err != nil || !ok {
					continue
				}
				ms = append(ms, rw.match(tt))
			}
		}
	}
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Evaluator, work)
	st.sendNotifications(notifications(ms))
}

// handlePairTuple evaluates and stores a tuple at a BaselinePair site: the
// node owns both relations of one join-attribute pair and computes the join
// locally (Section 4.1: "evaluating locally a query is now very easy since
// we have the two relations in one node").
func (st *nodeState) handlePairTuple(m baselineTupleMsg) {
	t := m.T
	var mbuf [matchScratch]match
	ms := mbuf[:0]
	work := 1
	stored := 0

	st.mu.Lock()
	b := st.pairBucketFor(m.Input)
	for _, g := range b.byCond.all() {
		for _, q := range g.queries {
			side, err := q.SideFor(t.Relation())
			if err != nil {
				continue
			}
			work++
			if t.PubT() < q.InsT() {
				continue
			}
			if ok, err := q.FiltersPass(t); err != nil || !ok {
				continue
			}
			vSide, err := q.EvalSide(side, t)
			if err != nil {
				continue
			}
			for _, tt := range b.tuples[side.Other()].all() {
				work++
				if tt.Relation() == t.Relation() || tt.PubT() < q.InsT() {
					continue
				}
				vOther, err := q.EvalSide(side.Other(), tt)
				if err != nil || !vOther.Equal(vSide) {
					continue
				}
				if ok, err := q.FiltersPass(tt); err != nil || !ok {
					continue
				}
				ms = append(ms, match{q: q, side: side, trig: t, other: tt})
			}
		}
	}
	if b.tuples[m.Side].add(t) {
		stored++
	}
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Evaluator, work)
	if stored > 0 {
		st.load.AddStorage(metrics.Evaluator, stored)
	}
	st.sendNotifications(notifications(ms))
}
