package engine

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"cqjoin/internal/id"
	"cqjoin/internal/metrics"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// This file implements the multi-way extension (the future work of
// Chapter 7): continuous chain equi-joins over k relations, evaluated by
// the pipeline generalization of SAI. The query is indexed at the
// attribute level under one endpoint of its join chain. Every matching
// tuple consumes one relation and reindexes the remainder — a partial
// match carrying the tuples gathered so far — at the value level of the
// next relation in the chain, where it meets that relation's stored and
// future tuples, until the chain is exhausted and a notification fires.
//
// The single-attribute indexing of SAI extends unchanged: exactly one
// rewriter per query, each (partial match, tuple) pair meets exactly once
// (either the partial match scans the tuple in the VLTT on arrival, or the
// tuple triggers the stored partial match later), so no duplicates arise.
// Multi-way evaluation requires the engine to store tuples at the value
// level, i.e. the SAI or DAI-Q storage regime.

// mQueryMsg indexes a chain at its rewriter, oriented so that Rels()[0] is
// the relation it is indexed under (Subscribe sends one for k > 2). A chain
// of two that an earlier build sent stays in this pipeline.
type mQueryMsg struct {
	MQ      *query.Query
	Attr    string
	Replica int
}

func (mQueryMsg) Kind() string { return kindQuery }

// mRewritten is a partial match travelling down the pipeline: the original
// query, the tuples matched so far (projected on the needed attributes,
// aligned with the chain's first Stage relations), and the value-level
// identifier components where the next relation's tuples will meet it.
type mRewritten struct {
	Key       string
	Orig      *query.Query
	Stage     int // number of relations matched; waiting for Rels()[Stage]
	Acc       []*relation.Tuple
	WantRel   string
	WantAttr  string
	WantValue relation.Value
}

// mJoinMsg reindexes partial matches that share one evaluator.
type mJoinMsg struct {
	Rewrites []*mRewritten
}

func (mJoinMsg) Kind() string { return kindMJoin }

// handleMQueryIndex stores a multi-way query at its rewriter, grouped by
// chain condition, and revokes the silence the bucket granted.
func (st *nodeState) handleMQueryIndex(m mQueryMsg) {
	input := alInput(m.MQ.Rel(query.SideLeft).Name(), m.Attr, m.Replica)
	cond := m.MQ.ConditionKey()
	st.mu.Lock()
	if st.isRetracted(m.MQ.Key()) {
		st.mu.Unlock()
		return
	}
	b := st.alBucketFor(input)
	g := b.multi.getOrAdd(cond, func() *mGroup { return &mGroup{cond: cond} })
	g.queries = append(g.queries, m.MQ)
	granted := b.takeGrants()
	st.mu.Unlock()
	st.revoke(input, granted)
	st.load.AddFiltering(metrics.Rewriter, 1)
	st.load.AddStorage(metrics.Rewriter, 1)
}

// mGroup is an ALQT group of multi-way queries with one chain condition.
type mGroup struct {
	cond    string
	queries []*query.Query
}

// triggerMulti runs the multi-way groups of an ALQT bucket against an
// incoming tuple, returning the stage-1 partial matches bound for their
// evaluators. The caller holds st.mu and charges the returned filtering
// work.
func (st *nodeState) triggerMulti(b *alBucket, t *relation.Tuple) (outs []outbound, examined int) {
	for _, g := range b.multi.all() {
		var rws []*mRewritten
		var target string
		for _, mq := range g.queries {
			examined++
			if t.PubT() < mq.InsT() {
				continue
			}
			if ok, err := mq.FiltersPass(t); err != nil || !ok {
				continue
			}
			rw, err := advanceMulti(mq, nil, t)
			if err != nil || rw == nil {
				continue
			}
			rws = append(rws, rw)
			target = vlInput(rw.WantRel, rw.WantAttr, rw.WantValue)
			// Remember the fan-out so retraction can purge the stage-1
			// partial matches (the same list two-way rewrites use).
			ts := b.sentTargets[mq.Key()]
			if ts == nil {
				ts = make(map[string]struct{})
				b.sentTargets[mq.Key()] = ts
			}
			ts[target] = struct{}{}
		}
		if len(rws) > 0 {
			outs = append(outs, outbound{input: target, msg: mJoinMsg{Rewrites: rws}})
		}
	}
	return outs, examined
}

// advanceMulti extends a partial match (nil prev means the trigger stage)
// with tuple t and returns the next-stage partial match, or nil when the
// chain is complete (the caller builds the notification instead through
// completeMulti).
func advanceMulti(mq *query.Query, prev *mRewritten, t *relation.Tuple) (*mRewritten, error) {
	stage := 1
	var acc []*relation.Tuple
	key := mq.Key()
	if prev != nil {
		stage = prev.Stage + 1
		acc = append(acc, prev.Acc...)
		key = prev.Key
	}
	proj, err := t.Project(mq.NeededAttrs(t.Relation()))
	if err != nil {
		return nil, err
	}
	acc = append(acc, proj)
	key += "+" + strconv.FormatInt(t.PubT(), 10)
	if stage >= mq.Arity() {
		return nil, fmt.Errorf("engine: multi-way chain overran its arity")
	}
	wantRel, wantAttr, wantVal, err := mq.StageWant(stage, t)
	if err != nil {
		return nil, err
	}
	return &mRewritten{
		Key:       key,
		Orig:      mq,
		Stage:     stage,
		Acc:       acc,
		WantRel:   wantRel,
		WantAttr:  wantAttr,
		WantValue: wantVal,
	}, nil
}

// matchMulti checks a stored or incoming partial match against a tuple of
// the awaited relation and returns either the completed notification or
// the next-stage outbound.
func matchMulti(rw *mRewritten, t *relation.Tuple) (n Notification, out *outbound, ok bool) {
	mq := rw.Orig
	if t.PubT() < mq.InsT() {
		return Notification{}, nil, false
	}
	if pass, err := mq.FiltersPass(t); err != nil || !pass {
		return Notification{}, nil, false
	}
	if rw.Stage == mq.Arity()-1 {
		// Chain complete: build the notification.
		proj, err := t.Project(mq.NeededAttrs(t.Relation()))
		if err != nil {
			return Notification{}, nil, false
		}
		combo := append(append([]*relation.Tuple(nil), rw.Acc...), proj)
		vals, err := mq.ProjectNotification(combo...)
		if err != nil {
			return Notification{}, nil, false
		}
		return Notification{
			QueryKey:     mq.Key(),
			Subscriber:   mq.Subscriber(),
			Values:       vals,
			LeftPubT:     chainPrefixID(rw),
			RightPubT:    proj.PubT(),
			subscriberIP: mq.SubscriberIP(),
		}, nil, true
	}
	next, err := advanceMulti(mq, rw, t)
	if err != nil {
		return Notification{}, nil, false
	}
	return Notification{}, &outbound{
		input: vlInput(next.WantRel, next.WantAttr, next.WantValue),
		msg:   mJoinMsg{Rewrites: []*mRewritten{next}},
	}, true
}

// chainPrefixID is the LeftPubT of the chain match that completes rw: what
// identifies every matched tuple but the last. One tuple is identified by
// its publication time, as in a two-way match. Longer prefixes get the top
// 63 bits of Hash(rw.Key) — the key already lists the prefix's publication
// times — because the SELECT list may name the end relations only, and
// then combinations that differ in an interior tuple share their content
// and both end times; delivery deduplication (deliveryKey) would drop all
// but one of them as repeats.
func chainPrefixID(rw *mRewritten) int64 {
	if len(rw.Acc) == 1 {
		return rw.Acc[0].PubT()
	}
	h := id.Hash(rw.Key)
	return int64(binary.BigEndian.Uint64(h[:8]) >> 1)
}

// handleMJoin processes partial matches arriving at a value-level node:
// each is matched against the stored tuples of the awaited relation (any
// completions or advancements are forwarded), then stored to meet that
// relation's future tuples.
func (st *nodeState) handleMJoin(m mJoinMsg) {
	var notifs []Notification
	var outs []outbound
	work := 1
	stored := 0

	st.mu.Lock()
	for _, rw := range m.Rewrites {
		if st.isRetracted(rw.Orig.Key()) {
			continue // behind its chain's purge
		}
		input := vlInput(rw.WantRel, rw.WantAttr, rw.WantValue)
		mb := st.mvlqt[input]
		if mb == nil {
			mb = &mvlqtBucket{input: input}
			st.mvlqt[input] = mb
		}
		if tb := st.vltt[input]; tb != nil {
			for _, tt := range tb.tuples.all() {
				work++
				if n, out, ok := matchMulti(rw, tt); ok {
					if out != nil {
						outs = append(outs, *out)
						mb.recordTarget(rw.Orig.Key(), out.input)
					} else {
						notifs = append(notifs, n)
					}
				}
			}
		}
		mb.rewrites = append(mb.rewrites, rw)
		stored++
	}
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Evaluator, work)
	if stored > 0 {
		st.load.AddStorage(metrics.Evaluator, stored)
	}
	st.sendJoins(outs)
	st.sendNotifications(notifs)
}

// mvlqtBucket holds the partial matches awaiting one (relation, attribute,
// value) identifier — the multi-way analogue of the VLQT.
type mvlqtBucket struct {
	input    string
	rewrites []*mRewritten
	// sentTargets records, per original query key, the next-stage
	// value-level identifiers this evaluator forwarded partial matches to —
	// the purge list a retraction cascades down the pipeline.
	sentTargets map[string]map[string]struct{}
}

// recordTarget remembers that a partial match of queryKey was forwarded to
// the evaluator of input. The caller holds st.mu.
func (mb *mvlqtBucket) recordTarget(queryKey, input string) {
	if mb.sentTargets == nil {
		mb.sentTargets = make(map[string]map[string]struct{})
	}
	ts := mb.sentTargets[queryKey]
	if ts == nil {
		ts = make(map[string]struct{})
		mb.sentTargets[queryKey] = ts
	}
	ts[input] = struct{}{}
}

// matchMultiStored runs an incoming value-level tuple against the stored
// partial matches of its identifier. The caller holds st.mu; the returned
// work is charged by the caller.
func (st *nodeState) matchMultiStored(key []byte, t *relation.Tuple) (notifs []Notification, outs []outbound, work int) {
	mb := st.mvlqt[string(key)]
	if mb == nil {
		return nil, nil, 0
	}
	for _, rw := range mb.rewrites {
		work++
		if n, out, ok := matchMulti(rw, t); ok {
			if out != nil {
				outs = append(outs, *out)
				mb.recordTarget(rw.Orig.Key(), out.input)
			} else {
				notifs = append(notifs, n)
			}
		}
	}
	return notifs, outs, work
}

// evictMultiBefore drops stored partial matches whose newest embedded
// tuple fell out of the window. The caller holds st.mu and adjusts the
// storage metric with the returned count.
func (st *nodeState) evictMultiBefore(cutoff int64) int {
	evicted := 0
	for _, mb := range st.mvlqt {
		kept := mb.rewrites[:0]
		for _, rw := range mb.rewrites {
			newest := int64(0)
			for _, t := range rw.Acc {
				if t.PubT() > newest {
					newest = t.PubT()
				}
			}
			if newest >= cutoff {
				kept = append(kept, rw)
			} else {
				evicted++
			}
		}
		mb.rewrites = kept
	}
	return evicted
}
