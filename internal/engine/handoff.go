package engine

import (
	"slices"
	"sort"
	"strings"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// A node's movable state leaves it one way and arrives one way: cut reads the
// tables of an arc out into a handoffMsg, removing them when it takes, and
// merge installs such a message through the keyed bucket merges of merge.go,
// so a message merged twice adds nothing twice. Every move is those two:
//   - a join, leave or crash inside the process (TransferKeys) cuts the arc
//     and merges it into the arc's new owner in memory;
//   - a process hand-off (ExportHandoff) cuts the whole node and sends it to
//     the node's new owning process, whose handler merges it;
//   - a checkpoint (ExportSnapshot) cuts every node without taking, and
//     recovery merges the copies (RestoreSnapshot).
//
// The sections below mirror the movable tables of nodeState. A taking cut also
// hands over the probe statistics (arrivals/distinct — advisory, cheap to
// re-learn) in fields the walk does not list, so only a move inside the
// process carries them. No move carries
// the JFRT, the learned subscriber IPs or the publisher's owner hints and
// verdicts: caches that refill. The grants behind those verdicts move with the
// rewriter's buckets, so a reader the new owner gets takes them back.

// kindHandoff names the hand-off message class for traffic accounting.
const kindHandoff = "handoff"

// targetsEntry is the wire form of one query's purge targets, sorted: at a
// rewriter, the inputs its group's purge list gives it (queryGroup.targets);
// at an evaluator, where its chain rewrites went on to (vlqtBucket.sent).
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

// alSection is the wire form of one alBucket.
type alSection struct {
	Input        string
	Groups       []alGroupSection
	SentRewrites []string
	SentTargets  []targetsEntry
	Interest     []string // query keys, sorted; walked behind the sections (handoffMsg.walk)
	Grants       []string // keys of the publishers told no query reads the input, sorted; walked behind those

	arrivals []int64 // probe statistics, taken by an in-process move only: not walked
	distinct map[string]struct{}
}

// vqEntry is one stored rewritten query. Times is its trigger's pubT as cut
// writes it; merge ignores it, so a parent's repeat times are read and dropped.
type vqEntry struct {
	Rw    *rewritten
	Times []int64
}

// vqSection is the wire form of one vlqtBucket, under its identifier.
type vqSection struct {
	ID          id.ID
	Entries     []vqEntry
	SentTargets []targetsEntry // walked behind the sections (handoffMsg.walk)
}

// vtSection is the wire form of one vlttBucket, under its identifier.
type vtSection struct {
	ID     id.ID
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

// handoffMsg is the movable state of one node's arc, as cut renders it. Over
// the wire it carries a node to its new owning process, where handling it
// merges it, so repeated delivery (the transport retries on a missing ack) is
// harmless.
type handoffMsg struct {
	AL        []alSection
	VQ        []vqSection
	VT        []vtSection
	DV        []dvSection
	Notifs    []notifSection
	Retracted []string     // a hand-off's process's retraction memory, sorted; a parent's snapshot section, its node's (unsubscribe.go)
	Hot       []hotSection // the hot-key detector at the arc's bases, by input; walked behind the VQ targets
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

// flattenTargets converts an evaluator's vlqtBucket.sent to its
// deterministic wire form.
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

// empty reports whether the message carries no section at all.
func (m handoffMsg) empty() bool {
	return len(m.AL) == 0 && len(m.VQ) == 0 &&
		len(m.VT) == 0 && len(m.DV) == 0 && len(m.Notifs) == 0 && len(m.Retracted) == 0 && len(m.Hot) == 0
}

// marked reports whether the message says what no build up to PR 25 could:
// when not, its walk ends where theirs did.
func (m handoffMsg) marked() bool {
	for i := range m.AL {
		if len(m.AL[i].Interest) > 0 {
			return true
		}
	}
	return len(m.Retracted) > 0 || m.granted()
}

// granted reports whether the message says what no build up to PR 32 could.
func (m handoffMsg) granted() bool {
	for i := range m.AL {
		if len(m.AL[i].Grants) > 0 {
			return true
		}
	}
	return m.forwarded()
}

// forwarded reports whether the message says what no build whose chains had
// sections of their own could: where a chain's rewrites went on from its VQ
// sections, or what the hot-key detector holds at the arc's bases.
func (m handoffMsg) forwarded() bool {
	for i := range m.VQ {
		if len(m.VQ[i].SentTargets) > 0 {
			return true
		}
	}
	return len(m.Hot) > 0
}

// ExportHandoff removes node n's movable engine state from this process
// and returns it as a handoffMsg bound for n on its new owning process, with
// a copy of the process's retraction memory, which stays: n's late arrivals
// are refused there as here. The second return is false when there was
// nothing to move. The caller delivers the message through the transport; a
// lost delivery loses the state, so callers should use the acked delivery
// path.
func (e *Engine) ExportHandoff(n *chord.Node) (chord.Message, bool) {
	m := e.state(n).cut(nil, true)
	m.Retracted = e.retractedKeys()
	return m, !m.empty()
}

// cut is the one place a node's movable tables are read out: it renders the
// buckets whose identifier inArc selects (nil: every one) as hand-off
// sections, in sorted key order — a value-level slot's key is its
// identifier, every other table's a string, hashed for inArc. Mutable slices
// are copied so later engine activity cannot reach into the message; the
// immutable leaves (tuples, queries, rewrites) are shared. With take set it
// removes what it renders and adds what only an in-process move carries (the
// unwalked fields). The retraction memory is the process's, not the node's:
// no cut renders it.
func (st *nodeState) cut(inArc func(id.ID) bool, take bool) handoffMsg {
	var m handoffMsg
	st.mu.Lock()
	cutEach(st.alqt, inArc, take, func(_ string, b *alBucket) {
		sec := alSection{
			Input:        b.input,
			SentRewrites: sortedKeys(b.sentRewrites),
			SentTargets:  []targetsEntry{},
			Interest:     sortedKeys(b.interest),
			Grants:       slices.Clone(b.grants),
		}
		for _, g := range b.byCond.all() {
			sec.Groups = append(sec.Groups, alGroupSection{
				Cond: g.cond, Side: g.side, Queries: append([]*query.Query(nil), g.queries...),
			})
			for _, q := range g.queries {
				if ts := g.targets(q); len(ts) > 0 {
					sec.SentTargets = append(sec.SentTargets, targetsEntry{Key: q.Key(), Targets: ts})
				}
			}
		}
		slices.SortFunc(sec.SentTargets, func(a, b targetsEntry) int { return strings.Compare(a.Key, b.Key) })
		if take {
			sec.arrivals, sec.distinct = b.arrivals, b.distinct
		}
		m.AL = append(m.AL, sec)
	})
	hs := make([]id.ID, 0, len(st.vl))
	for h := range st.vl {
		if inArc == nil || inArc(h) {
			hs = append(hs, h)
		}
	}
	slices.SortFunc(hs, id.ID.Cmp)
	for _, h := range hs {
		if qb := st.vl[h].q; qb != nil {
			sec := vqSection{ID: h}
			for _, rw := range qb.rewrites.all() {
				sec.Entries = append(sec.Entries, vqEntry{Rw: rw, Times: []int64{rw.Trigger.PubT()}})
			}
			if len(qb.sent) > 0 {
				sec.SentTargets = flattenTargets(qb.sent)
			}
			m.VQ = append(m.VQ, sec)
		}
		if tb := st.vl[h].t; tb != nil {
			m.VT = append(m.VT, vtSection{ID: h, Tuples: append([]*relation.Tuple(nil), tb.tuples.all()...)})
		}
		if take {
			delete(st.vl, h)
		}
	}
	cutEach(st.vstore, inArc, take, func(_ string, b *daivBucket) {
		sec := dvSection{Input: b.input}
		for _, entry := range b.byCond.all() {
			sec.Entries = append(sec.Entries, dvEntry{
				Cond:  entry.cond,
				Left:  append([]*relation.Tuple(nil), entry.tuples[query.SideLeft].all()...),
				Right: append([]*relation.Tuple(nil), entry.tuples[query.SideRight].all()...),
			})
		}
		m.DV = append(m.DV, sec)
	})
	cutEach(st.hot, inArc, take, func(input string, h *hotInput) {
		m.Hot = append(m.Hot, hotSection{Input: input, Count: h.count, WindowStart: h.windowStart, Promoted: h.promoted})
	})
	cutEach(st.storedNotifs, inArc, take, func(sub string, batch []Notification) {
		m.Notifs = append(m.Notifs, notifSection{Subscriber: sub, Batch: append([]Notification(nil), batch...)})
	})
	st.mu.Unlock()
	return m
}

// cutEach calls f on the entries of m whose key's hash inArc selects (nil:
// every one), in key order, and deletes each after f when take is set.
func cutEach[V any](m map[string]V, inArc func(id.ID) bool, take bool, f func(key string, v V)) {
	keys := make([]string, 0, len(m))
	for k := range m {
		if inArc == nil || inArc(id.Hash(k)) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		f(k, m[k])
		if take {
			delete(m, k)
		}
	}
}

// merge is the one place a handoffMsg is installed into this node's tables.
// With replayNotifs set (a move onto a live node) stored notifications
// addressed to this node are replayed immediately; snapshot restore passes
// false so recovered offline queues stay queued exactly as exported.
func (st *nodeState) merge(on *chord.Node, m handoffMsg, replayNotifs bool) {
	var replay []string
	var revoke []revocation

	st.mu.Lock()
	for _, sec := range m.AL {
		if revoked := st.mergeAL(sec); len(revoked) > 0 {
			revoke = append(revoke, revocation{sec.Input, revoked})
		}
	}
	for _, sec := range m.VQ {
		qb := st.vlqtFor(sec.ID, len(sec.Entries))
		for _, e := range sec.Entries {
			addRewrite(&qb.rewrites, e.Rw)
		}
		for _, te := range sec.SentTargets {
			for _, t := range te.Targets {
				qb.recordTarget(te.Key, t)
			}
		}
	}
	for _, sec := range m.VT {
		addTuples(&st.vlttFor(sec.ID).tuples, sec.Tuples)
	}
	for _, sec := range m.DV {
		st.mergeDAIV(sec)
	}
	st.engine.retract(m.Retracted...)
	if st.engine.hotK > 0 {
		for _, sec := range m.Hot {
			st.mergeHot(sec)
		}
	}
	for _, sec := range m.Notifs {
		st.storeNotifs(sec.Subscriber, sec.Batch)
		if replayNotifs && sec.Subscriber == on.Key() {
			replay = append(replay, sec.Subscriber)
		}
	}
	st.mu.Unlock()

	for _, r := range revoke {
		st.revoke(r.input, r.grantees)
	}
	for _, sub := range replay {
		st.replayStoredNotifications(sub, on)
	}
}
