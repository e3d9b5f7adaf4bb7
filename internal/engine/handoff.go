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
	Interest     []string // query keys, sorted; walked behind the sections (handoffMsg.walk)
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
	AL        []alSection
	VQ        []vqSection
	MQ        []mqSection
	VT        []vtSection
	DV        []dvSection
	Notifs    []notifSection
	Retracted []string // the node's retraction memory, sorted (unsubscribe.go)
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

// empty reports whether the message carries no section at all.
func (m handoffMsg) empty() bool {
	return len(m.AL) == 0 && len(m.VQ) == 0 && len(m.MQ) == 0 &&
		len(m.VT) == 0 && len(m.DV) == 0 && len(m.Notifs) == 0 && len(m.Retracted) == 0
}

// marked reports whether the message says what no build up to PR 25 could:
// when not, its walk ends where theirs did.
func (m handoffMsg) marked() bool {
	for i := range m.AL {
		if len(m.AL[i].Interest) > 0 {
			return true
		}
	}
	return len(m.Retracted) > 0
}

// ExportHandoff removes node n's movable engine state from this process
// and returns it as a handoffMsg bound for n on its new owning process.
// The second return is false when there was nothing to move. The caller
// delivers the message through the transport; a lost delivery loses the
// state, so callers should use the acked delivery path.
func (e *Engine) ExportHandoff(n *chord.Node) (chord.Message, bool) {
	st := e.state(n)
	var removedRewriter, removedEvaluator int

	st.mu.Lock()
	m := st.sectionsLocked()
	for _, b := range st.alqt {
		removedRewriter += b.storedItems()
	}
	for _, b := range st.vlqt {
		removedEvaluator += b.rewrites.len()
	}
	for _, b := range st.mvlqt {
		removedEvaluator += len(b.rewrites)
	}
	for _, b := range st.vltt {
		removedEvaluator += b.tuples.len()
	}
	for _, b := range st.vstore {
		removedEvaluator += b.storedItems()
	}
	for _, batch := range st.storedNotifs {
		removedEvaluator += len(batch)
	}
	clear(st.alqt)
	clear(st.vlqt)
	clear(st.mvlqt)
	clear(st.vltt)
	clear(st.vstore)
	clear(st.storedNotifs)
	clear(st.retracted)
	st.mu.Unlock()

	st.load.AddStorage(metrics.Rewriter, -removedRewriter)
	st.load.AddStorage(metrics.Evaluator, -removedEvaluator)
	return m, !m.empty()
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
		for _, key := range sec.Interest {
			b.mark(key)
		}
		addedRewriter += st.mergeAL(b)
	}
	for _, sec := range m.VQ {
		qb := st.vlqtFor(sec.Input)
		for _, e := range sec.Entries {
			if qb.rewrites.record(e.Rw, nil, e.Times...) {
				addedEvaluator++
			}
		}
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
		addedEvaluator += st.vlttFor(sec.Input).tuples.addAll(sec.Tuples)
	}
	for _, sec := range m.DV {
		b := newDAIVBucket(sec.Input)
		for _, e := range sec.Entries {
			entry := &daivEntry{cond: e.Cond}
			entry.tuples[query.SideLeft].addAll(e.Left)
			entry.tuples[query.SideRight].addAll(e.Right)
			b.byCond[e.Cond] = entry
		}
		addedEvaluator += st.mergeDAIV(b)
	}
	for _, key := range m.Retracted {
		st.retract(key)
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
