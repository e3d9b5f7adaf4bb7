package engine

import (
	"sort"

	"cqjoin/internal/chord"
	"cqjoin/internal/metrics"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Process-level state hand-off for the multi-process overlay. Within one
// process, ring responsibility moves through TransferKeys: buckets are Go
// values and simply re-home. Across processes, the same movement needs a
// wire form — when a cqjoind process joins or leaves a running overlay,
// every node whose ownership moves must ship its accumulated engine state
// (ALQT groups, value-level rewrites and tuples, DAI-V stores, stored
// offline notifications) to the node's new owning process, where it merges
// through the exact same idempotent merge helpers TransferKeys uses.
//
// The sections below mirror the movable tables of nodeState. Deliberately
// NOT carried: the probe statistics (arrivals/distinct — advisory, cheap
// to re-learn), the JFRT and learned-subscriber-IP caches (best-effort
// caches that refill), and the pair-baseline store (the naive baselines
// never run multi-process).

// kindHandoff names the hand-off message class for traffic accounting.
const kindHandoff = "handoff"

// targetsEntry is the wire form of one sentTargets map entry, with the
// target set flattened to a sorted slice.
type targetsEntry struct {
	Key     string
	Targets []string
}

// alGroupSection is one ALQT condition group.
type alGroupSection struct {
	Cond    string
	Side    query.Side
	Queries []*query.Query
}

// alMultiSection is one multi-way chain group of an ALQT bucket.
type alMultiSection struct {
	Cond    string
	Queries []*query.MultiQuery
}

// alSection is the wire form of one alBucket.
type alSection struct {
	Input        string
	Groups       []alGroupSection
	Multi        []alMultiSection
	SentRewrites []string
	SentTargets  []targetsEntry
}

// vqEntry is one stored rewritten query with its trigger times.
type vqEntry struct {
	Rw    *rewritten
	Times []int64
}

// vqSection is the wire form of one vlqtBucket.
type vqSection struct {
	Input   string
	Entries []vqEntry
}

// mqSection is the wire form of one mvlqtBucket.
type mqSection struct {
	Input       string
	Rewrites    []*mRewritten
	SentTargets []targetsEntry
}

// vtSection is the wire form of one vlttBucket.
type vtSection struct {
	Input  string
	Tuples []*relation.Tuple
}

// dvEntry is one DAI-V condition entry with its per-side tuple stores.
type dvEntry struct {
	Cond  string
	Left  []*relation.Tuple
	Right []*relation.Tuple
}

// dvSection is the wire form of one daivBucket.
type dvSection struct {
	Input   string
	Entries []dvEntry
}

// notifSection is the stored-notification queue of one offline subscriber.
type notifSection struct {
	Subscriber string
	Batch      []Notification
}

// handoffMsg carries one node's movable engine state to the same node on
// its new owning process. Handling it merges every section through the
// TransferKeys merge path, so repeated delivery (the transport retries on
// a missing ack) is harmless.
type handoffMsg struct {
	AL     []alSection
	VQ     []vqSection
	MQ     []mqSection
	VT     []vtSection
	DV     []dvSection
	Notifs []notifSection
}

func (handoffMsg) Kind() string { return kindHandoff }

// sortedKeys returns the keys of a bucket-map in sorted order, for
// deterministic export.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// flattenTargets converts a sentTargets map to its deterministic wire form.
func flattenTargets(m map[string]map[string]struct{}) []targetsEntry {
	out := make([]targetsEntry, 0, len(m))
	for _, k := range sortedKeys(m) {
		ts := make([]string, 0, len(m[k]))
		for t := range m[k] {
			ts = append(ts, t)
		}
		sort.Strings(ts)
		out = append(out, targetsEntry{Key: k, Targets: ts})
	}
	return out
}

// restoreTargets rebuilds a sentTargets map from its wire form.
func restoreTargets(entries []targetsEntry) map[string]map[string]struct{} {
	m := make(map[string]map[string]struct{}, len(entries))
	for _, e := range entries {
		ts := make(map[string]struct{}, len(e.Targets))
		for _, t := range e.Targets {
			ts[t] = struct{}{}
		}
		m[e.Key] = ts
	}
	return m
}

// ExportHandoff removes node n's movable engine state from this process
// and returns it as a handoffMsg bound for n on its new owning process.
// The second return is false when there was nothing to move. The caller
// delivers the message through the transport; a lost delivery loses the
// state, so callers should use the acked delivery path.
func (e *Engine) ExportHandoff(n *chord.Node) (chord.Message, bool) {
	st := e.state(n)
	var m handoffMsg
	var removedRewriter, removedEvaluator int

	st.mu.Lock()
	for _, input := range sortedKeys(st.alqt) {
		b := st.alqt[input]
		delete(st.alqt, input)
		removedRewriter += b.storedItems()
		sec := alSection{
			Input:        b.input,
			SentRewrites: sortedKeys(b.sentRewrites),
			SentTargets:  flattenTargets(b.sentTargets),
		}
		for _, cond := range condsOf(b.byCond, b.condOrder) {
			g := b.byCond[cond]
			sec.Groups = append(sec.Groups, alGroupSection{Cond: g.cond, Side: g.side, Queries: g.queries})
		}
		for _, cond := range sortedKeys(b.multi) {
			g := b.multi[cond]
			sec.Multi = append(sec.Multi, alMultiSection{Cond: g.cond, Queries: g.queries})
		}
		m.AL = append(m.AL, sec)
	}
	for _, input := range sortedKeys(st.vlqt) {
		b := st.vlqt[input]
		delete(st.vlqt, input)
		removedEvaluator += len(b.byKey)
		sec := vqSection{Input: b.input}
		for _, sr := range b.sorted {
			sec.Entries = append(sec.Entries, vqEntry{Rw: sr.rw, Times: sr.times})
		}
		m.VQ = append(m.VQ, sec)
	}
	for _, input := range sortedKeys(st.mvlqt) {
		b := st.mvlqt[input]
		delete(st.mvlqt, input)
		removedEvaluator += len(b.rewrites)
		m.MQ = append(m.MQ, mqSection{
			Input:       b.input,
			Rewrites:    b.rewrites,
			SentTargets: flattenTargets(b.sentTargets),
		})
	}
	for _, input := range sortedKeys(st.vltt) {
		b := st.vltt[input]
		delete(st.vltt, input)
		removedEvaluator += len(b.tuples)
		m.VT = append(m.VT, vtSection{Input: b.input, Tuples: b.tuples})
	}
	for _, input := range sortedKeys(st.vstore) {
		b := st.vstore[input]
		delete(st.vstore, input)
		removedEvaluator += b.storedItems()
		sec := dvSection{Input: b.input}
		for _, cond := range sortedKeys(b.byCond) {
			entry := b.byCond[cond]
			sec.Entries = append(sec.Entries, dvEntry{
				Cond:  entry.cond,
				Left:  entry.tuples[query.SideLeft],
				Right: entry.tuples[query.SideRight],
			})
		}
		m.DV = append(m.DV, sec)
	}
	for _, sub := range sortedKeys(st.storedNotifs) {
		batch := st.storedNotifs[sub]
		delete(st.storedNotifs, sub)
		removedEvaluator += len(batch)
		m.Notifs = append(m.Notifs, notifSection{Subscriber: sub, Batch: batch})
	}
	st.mu.Unlock()

	st.load.AddStorage(metrics.Rewriter, -removedRewriter)
	st.load.AddStorage(metrics.Evaluator, -removedEvaluator)

	empty := len(m.AL) == 0 && len(m.VQ) == 0 && len(m.MQ) == 0 &&
		len(m.VT) == 0 && len(m.DV) == 0 && len(m.Notifs) == 0
	return m, !empty
}

// handleHandoff merges an incoming hand-off into this node's state through
// the same keyed merges TransferKeys uses, so a retried or duplicated
// hand-off delivery adds nothing twice. Stored notifications whose
// subscriber is this node are replayed immediately.
func (st *nodeState) handleHandoff(on *chord.Node, m handoffMsg) {
	st.merge(on, m, true)
}

// merge installs a handoffMsg into this node's tables. With replayNotifs
// set (the live hand-off path) stored notifications addressed to this node
// are replayed immediately; snapshot restore passes false so recovered
// offline queues stay queued exactly as exported.
func (st *nodeState) merge(on *chord.Node, m handoffMsg, replayNotifs bool) {
	var addedRewriter, addedEvaluator int
	var replay []string

	st.mu.Lock()
	for _, sec := range m.AL {
		b := newALBucket(sec.Input)
		for _, g := range sec.Groups {
			b.byCond[g.Cond] = &queryGroup{cond: g.Cond, side: g.Side, queries: g.Queries}
			b.condOrder = append(b.condOrder, g.Cond)
		}
		for _, g := range sec.Multi {
			b.multi[g.Cond] = &mGroup{cond: g.Cond, queries: g.Queries}
		}
		for _, k := range sec.SentRewrites {
			b.sentRewrites[k] = true
		}
		b.sentTargets = restoreTargets(sec.SentTargets)
		addedRewriter += st.mergeAL(b)
	}
	for _, sec := range m.VQ {
		b := newVLQTBucket(sec.Input)
		for _, e := range sec.Entries {
			sr := &storedRewrite{rw: e.Rw, times: e.Times}
			b.byKey[e.Rw.Key] = sr
			b.sorted = append(b.sorted, sr)
		}
		addedEvaluator += st.mergeVLQT(b)
	}
	for _, sec := range m.MQ {
		b := &mvlqtBucket{
			input:       sec.Input,
			rewrites:    sec.Rewrites,
			sentTargets: restoreTargets(sec.SentTargets),
		}
		addedEvaluator += st.mergeMVLQT(b)
	}
	for _, sec := range m.VT {
		b := newVLTTBucket(sec.Input)
		b.tuples = sec.Tuples
		for _, t := range sec.Tuples {
			b.seen[t.ContentKey()] = true
		}
		addedEvaluator += st.mergeVLTT(b)
	}
	for _, sec := range m.DV {
		b := newDAIVBucket(sec.Input)
		for _, e := range sec.Entries {
			entry := &daivEntry{cond: e.Cond, seen: make(map[string]bool, len(e.Left)+len(e.Right))}
			entry.tuples[query.SideLeft] = e.Left
			entry.tuples[query.SideRight] = e.Right
			for _, t := range e.Left {
				entry.seen[t.ContentKey()] = true
			}
			for _, t := range e.Right {
				entry.seen[t.ContentKey()] = true
			}
			b.byCond[e.Cond] = entry
		}
		addedEvaluator += st.mergeDAIV(b)
	}
	for _, sec := range m.Notifs {
		st.storedNotifs[sec.Subscriber] = append(st.storedNotifs[sec.Subscriber], sec.Batch...)
		addedEvaluator += len(sec.Batch)
		if replayNotifs && sec.Subscriber == on.Key() {
			replay = append(replay, sec.Subscriber)
		}
	}
	st.mu.Unlock()

	st.load.AddStorage(metrics.Rewriter, addedRewriter)
	st.load.AddStorage(metrics.Evaluator, addedEvaluator)
	for _, sub := range replay {
		st.replayStoredNotifications(sub, on)
	}
}
