package engine

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"

	"cqjoin/internal/chord"
	"cqjoin/internal/metrics"
	"cqjoin/internal/relation"
)

// Adaptive hot-key sharding (DESIGN.md §13). The paper's attribute-level
// replication (Section 4.7.2) splits the rewriter role, but every tuple
// carrying the same join value still routes to the single value-level node
// Hash(R+A+v) — one Zipf-hot key re-creates the hotspot one level down.
// This layer detects heavy-hitter value-level inputs at runtime and shards
// only their evaluators:
//
//   - The base evaluator counts arrivals (tuples and rewritten queries) per
//     value-level input over a logical-time window. Crossing the threshold
//     promotes the input: its evaluator splits across k deterministic
//     replica identifiers Hash(hotShardInput(input, i)).
//   - Rewritten queries scatter: every join arriving at the base bucket is
//     stored there (the base doubles as shard 0) and re-sent to shards
//     1..k-1, so each shard holds the full rewrite set.
//   - Tuples partition: the base relays each arriving tuple to the one
//     shard its content hashes to, so matching and storage spread ~k ways.
//     Matches gather back through the ordinary notification path.
//   - Keys that cool below the demotion rate collapse back to the single
//     base bucket. Promotion and demotion are versioned epoch transitions
//     whose state moves through hot-handoff frames merged with
//     match-on-merge, so pairs split by an in-flight transition are still
//     reported exactly once (the subscriber-side delivery dedup absorbs
//     re-matches).
//
// The layer runs only under SAI: SAI evaluators store both rewrites and
// tuples, which the match-on-merge recovery relies on. DAI-Q and DAI-T
// store only one side, so a pair split by an in-flight migration could
// never meet again; they keep the paper's unsharded path. Multi-way
// pipelines route partial matches through the same value-level identifiers
// without shard awareness, so registering one suspends the layer.
//
// Determinism: counters are exact per-input tallies (an unbounded
// space-saving sketch — no capacity eviction, whose cross-input victim
// choice would depend on arrival interleaving), bumped by logical event
// time, so a sequential run promotes the same inputs at the same events
// every time and a uniform workload that never promotes is bit-identical
// with the layer on or off. Concurrent publishers share the tracker under
// its mutex: which arrival crosses the threshold then depends on
// scheduling, and match-on-merge keeps the notification set complete
// whichever does.

// hotShardInput names shard i of a promoted value-level input. Shard 0 is
// the unsuffixed base input — the cold bucket and shard 0 are the same
// bucket, so promotion never moves shard-0 state.
func hotShardInput(input string, shard int) string {
	if shard == 0 {
		return input
	}
	b := make([]byte, 0, len(input)+5)
	b = append(b, input...)
	b = append(b, '#', 's')
	b = strconv.AppendInt(b, int64(shard), 10)
	return string(b)
}

// shardOf deterministically assigns a tuple to one of k shards by hashing
// its content identity. Content-based (not engine-local) so routing-time
// and migration-time partitioning agree, in any process.
func shardOf(t *relation.Tuple, k int) int {
	if k <= 1 {
		return 0
	}
	h := fnv.New64a()
	_, _ = h.Write([]byte(t.ContentKey()))
	return int(h.Sum64() % uint64(k))
}

// hotEntry is the registry state of one value-level input: the epoch
// version (incremented by every transition) and the shard count k. k == 0
// means cold.
type hotEntry struct {
	version int
	k       int
}

func (e hotEntry) hot() bool { return e.k > 0 }

// hotCounter is the per-input arrival tally of the current window.
type hotCounter struct {
	count       int64
	windowStart int64
}

// hotTransitionKind labels a registry state transition.
type hotTransitionKind int

const (
	hotPromote hotTransitionKind = iota + 1
	hotDemote
)

// hotTransition describes a transition decided by bump. The caller — never
// the tracker, which must not send under its own lock — executes it by
// sending the migrate/recall frames (runHotTransition).
type hotTransition struct {
	kind    hotTransitionKind
	input   string
	version int // the new epoch
	k       int // shard count of the new epoch (0 when demoting)
	oldK    int // shard count being recalled (demote)
}

// hotTracker is the engine-wide heavy-hitter detector and epoch registry.
type hotTracker struct {
	threshold   int64
	window      int64
	replicas    int
	demoteBelow int64

	mu       sync.Mutex
	counters map[string]*hotCounter
	entries  map[string]hotEntry
}

func newHotTracker(cfg Config) *hotTracker {
	t := &hotTracker{
		threshold:   int64(cfg.HotKeyThreshold),
		window:      cfg.HotKeyWindow,
		replicas:    cfg.HotKeyReplicas,
		demoteBelow: int64(cfg.HotKeyDemoteBelow),
		counters:    make(map[string]*hotCounter),
		entries:     make(map[string]hotEntry),
	}
	if t.window <= 0 {
		t.window = 64
	}
	if t.replicas < 2 {
		t.replicas = 4
	}
	return t
}

// bump records one arrival for input at logical time eventT and returns the
// transition it triggers, if any. Window accounting is touch-driven: a
// window closes when the first event past its end arrives, which is also
// when a cooled-down input is demoted.
func (h *hotTracker) bump(input string, eventT int64) (hotTransition, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.counters[input]
	if c == nil {
		c = &hotCounter{windowStart: eventT}
		h.counters[input] = c
	}
	entry := h.entries[input]
	if eventT-c.windowStart >= h.window {
		completed := c.count
		c.count = 0
		c.windowStart = eventT
		if entry.hot() && h.demoteBelow > 0 && completed < h.demoteBelow {
			next := hotEntry{version: entry.version + 1}
			h.entries[input] = next
			c.count++
			return hotTransition{
				kind: hotDemote, input: input,
				version: next.version, oldK: entry.k,
			}, true
		}
	}
	c.count++
	if !entry.hot() && c.count >= h.threshold {
		next := hotEntry{version: entry.version + 1, k: h.replicas}
		h.entries[input] = next
		return hotTransition{
			kind: hotPromote, input: input,
			version: next.version, k: next.k,
		}, true
	}
	return hotTransition{}, false
}

// observe installs the epoch a received hot frame was sent under, if newer
// than the registry's. Within one process the registry is shared and
// transitions apply synchronously, so observe is a no-op there; it keeps
// the frames self-describing for stale senders.
func (h *hotTracker) observe(input string, version, k int) {
	h.mu.Lock()
	if e := h.entries[input]; version > e.version {
		h.entries[input] = hotEntry{version: version, k: k}
	}
	h.mu.Unlock()
}

// lookup returns input's entry and whether it is currently promoted.
func (h *hotTracker) lookup(input string) (hotEntry, bool) {
	h.mu.Lock()
	e := h.entries[input]
	h.mu.Unlock()
	return e, e.hot()
}

// hotState returns the tracker when the layer is active: configured for
// this engine and not suspended by a multi-way pipeline.
func (e *Engine) hotState() *hotTracker {
	if e.hot == nil || e.multiOn.Load() {
		return nil
	}
	return e.hot
}

// HotKeyState describes one currently promoted value-level input.
type HotKeyState struct {
	Input    string
	Replicas int
	Version  int
}

// HotKeys returns the promoted inputs in sorted order.
func (e *Engine) HotKeys() []HotKeyState {
	if e.hot == nil {
		return nil
	}
	h := e.hot
	h.mu.Lock()
	var out []HotKeyState
	for input, entry := range h.entries {
		if entry.hot() {
			out = append(out, HotKeyState{Input: input, Replicas: entry.k, Version: entry.version})
		}
	}
	h.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Input < out[j].Input })
	return out
}

// Message kinds of the hot-key protocol.
const (
	kindHotJoin    = "hot-join"
	kindHotVLIndex = "hot-vl-index"
	kindHotMigrate = "hot-migrate"
	kindHotRecall  = "hot-recall"
	kindHotHandoff = "hot-handoff"
)

// hotJoinMsg scatters a group of rewritten queries from the base bucket to
// shard Shard (1..K-1) of promoted input Input, under epoch Version/K.
type hotJoinMsg struct {
	Input    string
	Shard    int
	Version  int
	K        int
	Rewrites []*rewritten
}

func (hotJoinMsg) Kind() string { return kindHotJoin }

// hotVLIndexMsg relays one tuple from the base bucket to the shard its
// content hashes to.
type hotVLIndexMsg struct {
	Input   string
	Shard   int
	Version int
	K       int
	T       *relation.Tuple
}

func (hotVLIndexMsg) Kind() string { return kindHotVLIndex }

// hotMigrateMsg tells the base evaluator of Input to partition its bucket
// under epoch Version/K: the rewrite set is copied to every shard and each
// stored tuple ships to the shard it hashes to. Sent on promotion.
type hotMigrateMsg struct {
	Input   string
	Version int
	K       int
}

func (hotMigrateMsg) Kind() string { return kindHotMigrate }

// hotRecallMsg tells shard Shard of Input to dissolve: it drops its rewrite
// copies (the base holds the authoritative set) and ships its tuples back
// to the base bucket. Version/K carry the successor epoch (K == 0: the
// input demoted to cold).
type hotRecallMsg struct {
	Input   string
	Shard   int
	Version int
	K       int
}

func (hotRecallMsg) Kind() string { return kindHotRecall }

// hotHandoffMsg moves evaluator state between the base bucket and a shard:
// migration (base to shard, rewrites plus that shard's tuple partition),
// recall (shard to base, Shard == 0, tuples only), and stale-frame bounces.
// Merging matches newly added items against the counterpart table, so pairs
// split by an in-flight transition still meet; re-matches are absorbed by
// the subscriber-side delivery dedup.
type hotHandoffMsg struct {
	Input   string
	Shard   int
	Version int
	K       int
	Entries []vqEntry
	Tuples  []*relation.Tuple
}

func (hotHandoffMsg) Kind() string { return kindHotHandoff }

// runHotTransition executes a transition bump returned: it sends the
// migrate/recall frames from this node. Callers must not hold st.mu or the
// tracker lock — the cascade delivers synchronously in the simulator and
// re-enters node state.
func (st *nodeState) runHotTransition(tr hotTransition, ok bool) {
	if !ok {
		return
	}
	e := st.engine
	var batch []chord.Deliverable
	switch tr.kind {
	case hotPromote:
		e.obs.hotPromotions.Add(1)
		batch = append(batch, chord.Deliverable{
			Target: e.hashInput(tr.input),
			Msg:    hotMigrateMsg{Input: tr.input, Version: tr.version, K: tr.k},
		})
	case hotDemote:
		e.obs.hotDemotions.Add(1)
		for s := 1; s < tr.oldK; s++ {
			batch = append(batch, chord.Deliverable{
				Target: e.hashInput(hotShardInput(tr.input, s)),
				Msg:    hotRecallMsg{Input: tr.input, Shard: s, Version: tr.version, K: 0},
			})
		}
	}
	_ = e.dispatch(st.node, batch)
}

// hotScatterJoins runs the detector over a join batch arriving at this
// (base) evaluator and builds the scatter frames for promoted inputs: one
// hotJoinMsg per shard carrying the rewrites bound for that input. The
// caller stores the rewrites locally (shard 0) and dispatches the scatter
// after releasing st.mu.
func (st *nodeState) hotScatterJoins(hot *hotTracker, rws []*rewritten) []chord.Deliverable {
	var order []string
	byInput := make(map[string][]*rewritten)
	var input string
	for i, rw := range rws {
		if i == 0 || !rw.sameTarget(rws[i-1]) {
			input = vlInput(rw.WantRel, rw.WantAttr, rw.WantValue)
		}
		st.runHotTransition(hot.bump(input, rw.Trigger.PubT()))
		if _, seen := byInput[input]; !seen {
			order = append(order, input)
		}
		byInput[input] = append(byInput[input], rw)
	}
	e := st.engine
	var batch []chord.Deliverable
	for _, input := range order {
		entry, promoted := hot.lookup(input)
		if !promoted {
			continue
		}
		group := byInput[input]
		for s := 1; s < entry.k; s++ {
			batch = append(batch, chord.Deliverable{
				Target: e.hashInput(hotShardInput(input, s)),
				Msg: hotJoinMsg{
					Input: input, Shard: s,
					Version: entry.version, K: entry.k,
					Rewrites: group,
				},
			})
		}
	}
	return batch
}

// forwardHotTuple relays a value-level tuple arrival from the base bucket
// to its shard. The relay costs the base one filtering unit; the matching
// and storage work lands on the shard.
func (st *nodeState) forwardHotTuple(input string, shard int, entry hotEntry, t *relation.Tuple) {
	e := st.engine
	st.load.AddFiltering(metrics.Evaluator, 1)
	e.obs.hotForwards.Add(kindVLIndex, 1)
	_ = e.dispatch(st.node, []chord.Deliverable{{
		Target: e.hashInput(hotShardInput(input, shard)),
		Msg: hotVLIndexMsg{
			Input: input, Shard: shard,
			Version: entry.version, K: entry.k,
			T: t,
		},
	}})
}

// handleHotJoin stores a scattered rewrite group in this shard's bucket and
// matches it against the shard's tuple partition — the shard-side mirror of
// handleJoin's SAI arm. Rewrites are valid at every shard of every epoch
// (they scatter everywhere), so only a demotion re-routes them: back to the
// base bucket, whose keyed merge absorbs the duplicate.
func (st *nodeState) handleHotJoin(m hotJoinMsg) {
	e := st.engine
	hot := e.hotState()
	if hot == nil {
		return
	}
	hot.observe(m.Input, m.Version, m.K)
	if _, promoted := hot.lookup(m.Input); !promoted {
		e.obs.hotForwards.Add(kindJoin, 1)
		_ = e.dispatch(st.node, []chord.Deliverable{{
			Target: e.hashInput(m.Input),
			Msg:    joinMsg{Rewrites: m.Rewrites},
		}})
		return
	}
	key := hotShardInput(m.Input, m.Shard)
	var notifs []Notification
	work := 1
	stored := 0

	st.mu.Lock()
	qb := st.vlqtFor(key)
	for _, rw := range m.Rewrites {
		if !qb.rewrites.record(rw, rw.Trigger.PubT()) {
			work++
			continue
		}
		stored++
		if tb := st.vltt[key]; tb != nil {
			for _, tt := range tb.tuples.all() {
				work++
				if n, ok := matchRewrite(rw, tt); ok {
					notifs = append(notifs, n)
				}
			}
		}
	}
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Evaluator, work)
	if stored > 0 {
		st.load.AddStorage(metrics.Evaluator, stored)
	}
	st.sendNotifications(notifs)
}

// handleHotVLIndex evaluates a relayed tuple at its shard — the shard-side
// mirror of handleVLIndex's SAI arm. A tuple whose shard assignment no
// longer holds under the current epoch (demoted in flight) returns to the
// base bucket as a hot-handoff, whose match-on-merge re-evaluates it there.
func (st *nodeState) handleHotVLIndex(m hotVLIndexMsg) {
	e := st.engine
	hot := e.hotState()
	if hot == nil {
		return
	}
	hot.observe(m.Input, m.Version, m.K)
	entry, promoted := hot.lookup(m.Input)
	if !promoted || shardOf(m.T, entry.k) != m.Shard {
		e.obs.hotForwards.Add(kindHotHandoff, 1)
		_ = e.dispatch(st.node, []chord.Deliverable{{
			Target: e.hashInput(m.Input),
			Msg: hotHandoffMsg{
				Input: m.Input, Shard: 0,
				Version: entry.version, K: entry.k,
				Tuples: []*relation.Tuple{m.T},
			},
		}})
		return
	}
	key := hotShardInput(m.Input, m.Shard)
	var notifs []Notification
	work := 1
	stored := 0

	st.mu.Lock()
	if qb := st.vlqt[key]; qb != nil {
		for _, sr := range qb.rewrites.all() {
			work++
			if n, ok := matchRewrite(sr.rw, m.T); ok {
				notifs = append(notifs, n)
			}
		}
	}
	if st.vlttFor(key).tuples.add(m.T) {
		stored++
	} else {
		e.net.Traffic().RecordDuplicate(m.Kind())
	}
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Evaluator, work)
	if stored > 0 {
		st.load.AddStorage(metrics.Evaluator, stored)
	}
	st.sendNotifications(notifs)
}

// handleHotMigrate partitions the base bucket of a freshly promoted input:
// the full rewrite set is copied to every shard and each
// stored tuple whose content hashes to a foreign shard ships there. Shard-0
// items stay — the base bucket is shard 0. Idempotent under re-delivery:
// already-shipped tuples are gone and the rewrite copies merge keyed.
func (st *nodeState) handleHotMigrate(m hotMigrateMsg) {
	e := st.engine
	hot := e.hotState()
	if hot == nil {
		return
	}
	hot.observe(m.Input, m.Version, m.K)
	entry, promoted := hot.lookup(m.Input)
	if !promoted {
		// Demoted before the migrate landed; the recalls already ran.
		return
	}
	var entries []vqEntry
	groups := make([][]*relation.Tuple, entry.k)
	shipped := 0

	st.mu.Lock()
	if qb := st.vlqt[m.Input]; qb != nil {
		entries = make([]vqEntry, 0, qb.rewrites.len())
		for _, sr := range qb.rewrites.all() {
			entries = append(entries, vqEntry{Rw: sr.rw, Times: sr.times})
		}
	}
	if tb := st.vltt[m.Input]; tb != nil {
		shipped = tb.tuples.removeIf(func(t *relation.Tuple) bool {
			s := shardOf(t, entry.k)
			if s != 0 {
				groups[s] = append(groups[s], t)
			}
			return s != 0
		})
	}
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Evaluator, 1)
	if shipped > 0 {
		st.load.AddStorage(metrics.Evaluator, -shipped)
	}
	var batch []chord.Deliverable
	for s := 1; s < entry.k; s++ {
		if len(entries) == 0 && len(groups[s]) == 0 {
			continue
		}
		batch = append(batch, chord.Deliverable{
			Target: e.hashInput(hotShardInput(m.Input, s)),
			Msg: hotHandoffMsg{
				Input: m.Input, Shard: s,
				Version: entry.version, K: entry.k,
				Entries: entries, Tuples: groups[s],
			},
		})
	}
	_ = e.dispatch(st.node, batch)
}

// handleHotRecall dissolves one shard of a demoted input: the rewrite
// copies are dropped (the base bucket holds the authoritative set) and the
// tuple partition returns to the base as a hot-handoff, which the base
// merges — or, if the input re-promoted meanwhile, redistributes under the
// current epoch.
func (st *nodeState) handleHotRecall(m hotRecallMsg) {
	e := st.engine
	hot := e.hotState()
	if hot == nil {
		return
	}
	hot.observe(m.Input, m.Version, m.K)
	key := hotShardInput(m.Input, m.Shard)
	var tuples []*relation.Tuple
	removed := 0

	st.mu.Lock()
	if qb := st.vlqt[key]; qb != nil {
		removed += qb.rewrites.len()
		delete(st.vlqt, key)
	}
	if tb := st.vltt[key]; tb != nil {
		tuples = tb.tuples.all()
		removed += len(tuples)
		delete(st.vltt, key)
	}
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Evaluator, 1)
	if removed > 0 {
		st.load.AddStorage(metrics.Evaluator, -removed)
	}
	if len(tuples) == 0 {
		return
	}
	_ = e.dispatch(st.node, []chord.Deliverable{{
		Target: e.hashInput(m.Input),
		Msg: hotHandoffMsg{
			Input: m.Input, Shard: 0,
			Version: m.Version, K: m.K,
			Tuples: tuples,
		},
	}})
}

// handleHotHandoff merges migrated or recalled evaluator state into the
// bucket it is addressed to, re-routing content the current epoch places
// elsewhere. The merge matches newly added rewrites against pre-existing
// tuples and newly added tuples against the full rewrite set, so every
// pair split by an in-flight transition meets exactly once here; pairs that
// already met elsewhere re-match, and the subscriber-side delivery dedup
// suppresses the repeats.
func (st *nodeState) handleHotHandoff(m hotHandoffMsg) {
	e := st.engine
	hot := e.hotState()
	if hot == nil {
		return
	}
	hot.observe(m.Input, m.Version, m.K)
	entry, promoted := hot.lookup(m.Input)

	var local []*relation.Tuple
	var batch []chord.Deliverable
	if m.Shard == 0 {
		if promoted {
			// Returned tuples redistribute under the current epoch; the
			// shard-0 partition merges into the base bucket below.
			groups := make([][]*relation.Tuple, entry.k)
			for _, t := range m.Tuples {
				if s := shardOf(t, entry.k); s != 0 {
					groups[s] = append(groups[s], t)
				} else {
					local = append(local, t)
				}
			}
			for s := 1; s < entry.k; s++ {
				if len(groups[s]) == 0 {
					continue
				}
				batch = append(batch, chord.Deliverable{
					Target: e.hashInput(hotShardInput(m.Input, s)),
					Msg: hotHandoffMsg{
						Input: m.Input, Shard: s,
						Version: entry.version, K: entry.k,
						Tuples: groups[s],
					},
				})
			}
		} else {
			local = m.Tuples
		}
	} else {
		if !promoted {
			// Demoted in flight: everything returns to the base bucket.
			e.obs.hotForwards.Add(kindHotHandoff, 1)
			_ = e.dispatch(st.node, []chord.Deliverable{{
				Target: e.hashInput(m.Input),
				Msg: hotHandoffMsg{
					Input: m.Input, Shard: 0,
					Version: entry.version, K: 0,
					Entries: m.Entries, Tuples: m.Tuples,
				},
			}})
			return
		}
		// Rewrites are valid at every shard; tuples must hash to this shard
		// under the current epoch or go home for redistribution.
		var bounce []*relation.Tuple
		for _, t := range m.Tuples {
			if shardOf(t, entry.k) == m.Shard {
				local = append(local, t)
			} else {
				bounce = append(bounce, t)
			}
		}
		if len(bounce) > 0 {
			batch = append(batch, chord.Deliverable{
				Target: e.hashInput(m.Input),
				Msg: hotHandoffMsg{
					Input: m.Input, Shard: 0,
					Version: entry.version, K: entry.k,
					Tuples: bounce,
				},
			})
		}
	}

	key := hotShardInput(m.Input, m.Shard)
	st.mu.Lock()
	added, work, notifs := st.mergeHotBucket(key, m.Entries, local)
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Evaluator, 1+work)
	if added > 0 {
		st.load.AddStorage(metrics.Evaluator, added)
	}
	_ = e.dispatch(st.node, batch)
	st.sendNotifications(notifs)
}

// mergeHotBucket merges rewrites and tuples into the bucket named key with
// match-on-merge. Matching order keeps every cross pair to one meeting:
// added rewrites match only the tuples already present, then added tuples
// match the full (merged) rewrite set. The caller holds st.mu.
func (st *nodeState) mergeHotBucket(key string, entries []vqEntry, tuples []*relation.Tuple) (added, work int, notifs []Notification) {
	qb := st.vlqt[key]
	var addedRws []*rewritten
	if len(entries) > 0 {
		qb = st.vlqtFor(key)
		for _, e := range entries {
			if qb.rewrites.record(e.Rw, e.Times...) {
				added++
				addedRws = append(addedRws, e.Rw)
			}
		}
	}
	tb := st.vltt[key]
	if tb != nil {
		for _, rw := range addedRws {
			for _, tt := range tb.tuples.all() {
				work++
				if n, ok := matchRewrite(rw, tt); ok {
					notifs = append(notifs, n)
				}
			}
		}
	}
	if len(tuples) > 0 {
		tb = st.vlttFor(key)
		for _, t := range tuples {
			if !tb.tuples.add(t) {
				continue
			}
			added++
			if qb != nil {
				for _, sr := range qb.rewrites.all() {
					work++
					if n, ok := matchRewrite(sr.rw, t); ok {
						notifs = append(notifs, n)
					}
				}
			}
		}
	}
	return added, work, notifs
}
