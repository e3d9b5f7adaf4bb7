package engine

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"cqjoin/internal/chord"
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

// mQueryMsg indexes a multi-way query at its rewriter.
type mQueryMsg struct {
	MQ      *query.MultiQuery
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
	Orig      *query.MultiQuery
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

// SubscribeMulti indexes a continuous multi-way chain join on behalf of
// node from. The engine must run an algorithm that stores tuples at the
// value level (SAI or DAI-Q).
func (e *Engine) SubscribeMulti(from *chord.Node, mq *query.MultiQuery) (*query.MultiQuery, error) {
	if !from.Alive() {
		return nil, fmt.Errorf("engine: subscribe from departed node %s", from)
	}
	if e.cfg.Algorithm != SAI && e.cfg.Algorithm != DAIQ {
		return nil, fmt.Errorf("engine: multi-way joins need value-level tuple storage; run SAI or DAI-Q, not %s", e.cfg.Algorithm)
	}
	for _, s := range mq.Rels() {
		if e.catalog.Lookup(s.Name()) == nil {
			return nil, fmt.Errorf("engine: relation %s not in catalog", s.Name())
		}
	}
	e.mu.Lock()
	e.seq[from.Key()]++
	seq := e.seq[from.Key()]
	e.mu.Unlock()
	// Partial matches route through value-level identifiers without shard
	// awareness, so hot-key sharding is suspended from here on (hotState).
	e.multiOn.Store(true)

	oriented, err := e.chooseOrientation(from, mq.WithIdentity(from.Key(), from.IP(), seq))
	if err != nil {
		return nil, err
	}
	attr, err := oriented.IndexAttr()
	if err != nil {
		return nil, err
	}
	// Every later stage meets its relation's tuples at the value level of its
	// join attribute: marked, and acked before insT is drawn (Subscribe).
	inputs := e.chainInterestInputs(oriented)
	if err := e.announceInterest(from, oriented.Key(), inputs); err != nil {
		return nil, err
	}
	oriented = oriented.WithInsT(e.net.Clock().Tick())
	rel := oriented.Rel(0).Name()
	var batch []chord.Deliverable
	for r := 0; r < e.cfg.ReplicationFactor; r++ {
		input := alInput(rel, attr, r)
		inputs = append(inputs, input)
		batch = append(batch, chord.Deliverable{
			Target: id.Hash(input),
			Msg:    mQueryMsg{MQ: oriented, Attr: attr, Replica: r},
		})
	}
	// The subscriber remembers where its chain is indexed and marked so it
	// can retract it later (UnsubscribeMulti).
	e.mu.Lock()
	e.subs[oriented.Key()] = inputs
	e.mu.Unlock()
	if err := e.dispatch(from, batch); err != nil {
		return nil, err
	}
	return oriented, nil
}

// chainInterestInputs lists where chain mq leaves its interest marks: every
// stage past the first, (relation, join attribute towards the stage before).
func (e *Engine) chainInterestInputs(mq *query.MultiQuery) []string {
	if e.cfg.BlindIndexing {
		return nil
	}
	var inputs []string
	for i, link := range mq.Links() {
		if attrs := query.Attrs(link.R); len(attrs) == 1 {
			inputs = e.replicaInputs(inputs, mq.Rel(i+1).Name(), attrs[0].Name)
		}
	}
	return inputs
}

// chooseOrientation picks which chain endpoint indexes the query,
// following the SAI strategy (Section 4.3.6 generalized): min-rate probes
// both endpoint rewriters and indexes at the quieter one.
func (e *Engine) chooseOrientation(from *chord.Node, mq *query.MultiQuery) (*query.MultiQuery, error) {
	rev := mq.Reverse()
	switch e.cfg.Strategy {
	case StrategyLeft:
		return mq, nil
	case StrategyMinRate, StrategyMinDomain:
		fwd, err := e.probeMultiEndpoint(from, mq)
		if err != nil {
			return nil, err
		}
		bwd, err := e.probeMultiEndpoint(from, rev)
		if err != nil {
			return nil, err
		}
		if e.cfg.Strategy == StrategyMinRate {
			if fwd.rate <= bwd.rate {
				return mq, nil
			}
			return rev, nil
		}
		if fwd.domain <= bwd.domain {
			return mq, nil
		}
		return rev, nil
	default: // StrategyRandom
		if e.randIntn(2) == 0 {
			return mq, nil
		}
		return rev, nil
	}
}

func (e *Engine) probeMultiEndpoint(from *chord.Node, mq *query.MultiQuery) (rewriterStats, error) {
	attr, err := mq.IndexAttr()
	if err != nil {
		return rewriterStats{}, err
	}
	input := alInput(mq.Rels()[0].Name(), attr, 0)
	dst, _, err := from.Send(probeMsg{AttrInput: input}, id.Hash(input))
	if err != nil {
		return rewriterStats{}, err
	}
	return e.state(dst).readStats(input), nil
}

// handleMQueryIndex stores a multi-way query at its rewriter, grouped by
// chain condition, and revokes the silence the bucket granted.
func (st *nodeState) handleMQueryIndex(m mQueryMsg) {
	input := alInput(m.MQ.Rels()[0].Name(), m.Attr, m.Replica)
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
	queries []*query.MultiQuery
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
func advanceMulti(mq *query.MultiQuery, prev *mRewritten, t *relation.Tuple) (*mRewritten, error) {
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
		vals, err := mq.ProjectNotification(combo)
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
