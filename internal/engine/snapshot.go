package engine

import (
	"fmt"
	"slices"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
)

// Engine-wide snapshot for the durability layer (internal/durable,
// DESIGN.md §14). A snapshot is the hand-off's cut without taking
// (handoff.go): every node's movable tables in handoffMsg wire form, merged
// back on recovery, plus one snapMetaMsg carrying the engine-global state a
// replayed log needs to continue deterministically — the logical clock, the
// per-subscriber query sequence counters (so replayed subscribes re-derive
// the same Key(q)), the subscription index and its queries, what has been
// delivered (the notifications in the record, the bare identities of those a
// consumer took, the count), and the retraction memory, the process's. The
// hot-key detector is a base's own state and travels in its node's section.
// Deliberately NOT carried: what only a taking cut hands over (probe
// statistics), the caches no move carries, and the engine's private rng
// state (it only picks index attributes and replicas, which never changes
// match content — see DESIGN.md §14.3).

// kindSnapMeta names the snapshot-meta message class.
const kindSnapMeta = "snapmeta"

// seqEntry is one per-subscriber query sequence counter.
type seqEntry struct {
	Key string
	Seq int64
}

// subsEntry maps one query key to its attribute-level index inputs (the
// unsubscribe fan-out list).
type subsEntry struct {
	Key    string
	Inputs []string
}

// hotEpochEntry is one entry of the engine-wide hot-key registry a parent
// build's meta carried: the promoted epoch of a value-level input, sharded K
// ways (K==0: demoted, in a snapshot a build that demoted wrote).
type hotEpochEntry struct {
	Input   string
	Version int
	K       int
}

// hotCountEntry is one detector counter a parent build's meta carried:
// arrivals within the currently open window of an input.
type hotCountEntry struct {
	Input       string
	Count       int64
	WindowStart int64
}

// snapMetaMsg is the engine-global section of a snapshot. It reuses the
// engine message codec (tag tagSnapMeta), so it is walked, pinned and fuzzed
// like every other frame. Conds is neither filled by ExportSnapshot nor read
// by RestoreSnapshot: earlier builds listed every join condition ever indexed
// there, and the field keeps its place in the walk so their files decode.
// HotEpochs and HotCounts likewise are written empty, and read only from the
// files of builds that kept the hot-key state engine-wide (installHot).
// Delivered and Count follow everything those builds wrote: a frame that ends
// before them is one of theirs, whose Sink is all it had delivered. Marks
// follows in turn, written only when set, as ExportSnapshot does: without it
// the node sections are a blind build's and hold no interest marks. Standing
// follows Marks, written only where there are any: a frame that ends before
// it restores each key of Subs with no query to retract it by. Retracted
// follows Standing, written only where there are any: a frame that ends before
// it is a build's whose node sections each carried a retraction memory, which
// RestoreSnapshot unions with this one. Identities follows Retracted, written
// only where there are any: a frame that ends before it is a build's whose
// Delivered listed every identity as text, which says S("1") and N(1) alike;
// such entries restore into the legacy set and are written back to Delivered
// as they came.
type snapMetaMsg struct {
	Clock     int64
	Nodes     []string // alive node keys, ring order
	Down      []string // caller-declared crashed keys awaiting rejoin
	Seq       []seqEntry
	Subs      []subsEntry
	Multi     bool
	Conds     []*query.Query
	Sink      []Notification
	HotEpochs []hotEpochEntry
	HotCounts []hotCountEntry
	Delivered []string       // the text identities (deliveryKey) a parent build listed, in its order
	Count     int            // NotificationCount
	Marks     bool           // the node sections carry their buckets' interest marks
	Standing  []*query.Query // the queries of Subs that their subscriber posed here
	Retracted []string       // the process's retraction memory, sorted
	// Identities is every typed identity delivered, its query key spelled
	// (deliveredSet.spell), in deliveredSet.each's order, unless Sink implies
	// them all.
	Identities []string
}

func (snapMetaMsg) Kind() string { return kindSnapMeta }

// NodeSnapshot is one node's movable state in handoffMsg wire form, keyed
// by the node whose tables it holds.
type NodeSnapshot struct {
	Key string
	Msg chord.Message
}

// ExportSnapshot returns a consistent, non-destructive copy of the whole
// engine: the global meta message and one NodeSnapshot per alive node with
// non-empty movable state. down lists node keys the caller knows to be
// crashed-and-pending-rejoin, recorded so a recovery can rebuild the same
// ring liveness. The caller must ensure no operation is mid-cascade (the
// durable layer gates operations against checkpoints).
func (e *Engine) ExportSnapshot(down []string) (chord.Message, []NodeSnapshot) {
	nodes := e.net.Nodes()
	meta := snapMetaMsg{
		Clock: e.net.Clock().Now(),
		Down:  append([]string(nil), down...),
		Marks: true,
	}
	for _, n := range nodes {
		meta.Nodes = append(meta.Nodes, n.Key())
	}

	e.mu.Lock()
	for _, k := range sortedKeys(e.seq) {
		meta.Seq = append(meta.Seq, seqEntry{Key: k, Seq: int64(e.seq[k])})
	}
	for _, k := range sortedKeys(e.subs) {
		meta.Subs = append(meta.Subs, subsEntry{Key: k, Inputs: append([]string(nil), e.subs[k].inputs...)})
		if q := e.subs[k].q; q != nil {
			meta.Standing = append(meta.Standing, q)
		}
	}
	meta.Sink = append([]Notification(nil), e.sink...)
	meta.Count = e.count
	if e.delivered.len() > len(e.sink) { // a consumer took some, or the record was reset
		meta.Identities = make([]string, 0, e.delivered.len())
		e.delivered.each(func(id []byte) { meta.Identities = append(meta.Identities, e.delivered.spell(id)) })
	}
	if e.legacy.len() > 0 {
		meta.Delivered = make([]string, 0, e.legacy.len())
		e.legacy.each(func(id []byte) { meta.Delivered = append(meta.Delivered, textIdentityKey(id)) })
	}
	e.mu.Unlock()
	meta.Retracted = e.retractedKeys()

	var out []NodeSnapshot
	for _, n := range nodes {
		if m := e.state(n).cut(nil, false); !m.empty() {
			out = append(out, NodeSnapshot{Key: n.Key(), Msg: m})
		}
	}
	return meta, out
}

// RestoreSnapshot installs an exported snapshot into a freshly built
// engine (same catalog, config and seed as the exporting run): ring
// liveness is replayed first (missing nodes join, recorded-down nodes
// fail), then the clock catches up, then the global meta and every node's
// tables merge through the idempotent hand-off merges — without replaying
// stored offline notifications, which stay queued exactly as they were.
//
// A snapshot written before interest marks existed (its meta says so) holds
// none: they are re-derived from the restored ALQTs, and how many is returned.
// That is exact where this engine holds every node; one process of several
// cannot reach its peers' buckets and must not serve from it (daemon).
func (e *Engine) RestoreSnapshot(meta chord.Message, nodes []NodeSnapshot) (derivedMarks int, err error) {
	m, ok := meta.(snapMetaMsg)
	if !ok {
		return 0, fmt.Errorf("engine: restore: meta is %T, want snapMetaMsg", meta)
	}
	for _, en := range m.HotEpochs {
		if e.hotK > 0 && en.K != 0 && en.K != e.hotK {
			return 0, fmt.Errorf("engine: restore: %s is sharded %d ways, this engine shards %d", en.Input, en.K, e.hotK)
		}
	}

	have := make(map[string]*chord.Node)
	for _, n := range e.net.Nodes() {
		have[n.Key()] = n
	}
	want := make(map[string]bool, len(m.Nodes))
	for _, k := range m.Nodes {
		want[k] = true
	}
	for _, k := range m.Nodes {
		if have[k] == nil {
			if _, err := e.RejoinNode(k); err != nil {
				return 0, fmt.Errorf("engine: restore: join %s: %w", k, err)
			}
		}
	}
	// Nodes in the fresh overlay the snapshot does not list as alive were
	// down when it was taken (whether or not the exporter knew a rejoin
	// schedule for them): fail them so ownership matches the snapshot.
	for k, n := range have {
		if !want[k] {
			e.FailNode(n)
		}
	}

	if d := m.Clock - e.net.Clock().Now(); d > 0 {
		e.net.Clock().Advance(d)
	}

	e.mu.Lock()
	for _, s := range m.Seq {
		e.seq[s.Key] = int(s.Seq)
	}
	for _, s := range m.Subs {
		e.subs[s.Key] = standing{inputs: append([]string(nil), s.Inputs...)}
	}
	for _, q := range m.Standing { // each the query of a key of Subs
		e.subs[q.Key()] = standing{q: q, inputs: e.subs[q.Key()].inputs}
	}
	var buf [keyScratch]byte
	for _, n := range m.Sink {
		e.delivered.add(e.delivered.identity(buf[:0], n))
	}
	for _, k := range m.Delivered {
		id, err := appendKeyIdentity(buf[:0], k)
		if err != nil {
			e.mu.Unlock()
			return 0, fmt.Errorf("engine: restore: %w", err)
		}
		e.legacy.add(id)
	}
	for _, spelled := range m.Identities {
		if err := e.delivered.addSpelled(spelled); err != nil {
			e.mu.Unlock()
			return 0, fmt.Errorf("engine: restore: %w", err)
		}
	}
	e.count += m.Count
	if e.onNotify == nil { // as record: a consumer's engine keeps identities only
		e.sink = append(e.sink, m.Sink...)
	}
	e.mu.Unlock()

	e.retract(m.Retracted...)
	if e.hotK > 0 {
		e.installHot(m)
	}

	for _, ns := range nodes {
		n := e.net.NodeByKey(ns.Key)
		if n == nil {
			return 0, fmt.Errorf("engine: restore: node %s not in overlay", ns.Key)
		}
		hm, ok := ns.Msg.(handoffMsg)
		if !ok {
			return 0, fmt.Errorf("engine: restore: node %s section is %T, want handoffMsg", ns.Key, ns.Msg)
		}
		e.state(n).merge(n, hm, false)
	}
	if !m.Marks {
		for _, ns := range nodes {
			derivedMarks += e.deriveInterest(ns.Msg.(handoffMsg))
		}
	}
	return derivedMarks, nil
}

// installHot gives each input of a parent build's engine-wide hot-key
// registry to its base, the input's owner: its counter, and a promotion where
// its K is not 0.
func (e *Engine) installHot(m snapMetaMsg) {
	at := func(input string) *nodeState { return e.state(e.net.OracleSuccessor(vlHash([]byte(input)))) }
	for _, c := range m.HotCounts {
		st := at(c.Input)
		st.mu.Lock()
		st.mergeHot(hotSection{Input: c.Input, Count: c.Count, WindowStart: c.WindowStart})
		st.mu.Unlock()
	}
	for _, en := range m.HotEpochs {
		st := at(en.Input)
		st.mu.Lock()
		st.mergeHot(hotSection{Input: en.Input, Promoted: en.K > 0})
		st.mu.Unlock()
	}
}

// deriveInterest sets the marks of a restored node's queries where Subscribe
// would have — at the input's owner, on the retraction list — and counts them.
func (e *Engine) deriveInterest(m handoffMsg) (derived int) {
	mark := func(key string, inputs []string) {
		for _, input := range inputs {
			st := e.state(e.net.OracleSuccessor(id.Hash(input)))
			st.mu.Lock()
			added := st.alBucketFor(input).mark(key)
			st.mu.Unlock()
			if !added {
				continue // the query is indexed on several replicas: one mark
			}
			derived++
			e.mu.Lock()
			if sub, ok := e.subs[key]; ok && !slices.Contains(sub.inputs, input) { // its subscriber is this engine's
				sub.inputs = append(sub.inputs, input)
				e.subs[key] = sub
			}
			e.mu.Unlock()
		}
	}
	for _, sec := range m.AL {
		for _, g := range sec.Groups {
			for _, q := range g.Queries {
				mark(q.Key(), e.interestInputs(q, g.Side))
			}
		}
	}
	return derived
}
