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
//   - A promoted input stays promoted. Promotion moves the base bucket's
//     state to the shards in hot-handoff frames merged with match-on-merge,
//     so pairs split by the in-flight migration are still reported exactly
//     once (the subscriber-side delivery dedup absorbs re-matches).
//
// The layer runs only under SAI: SAI evaluators store both rewrites and
// tuples, which the match-on-merge recovery relies on. DAI-Q and DAI-T
// store only one side, so a pair split by an in-flight migration could
// never meet again; they keep the paper's unsharded path. A chain's rewrites
// shard like any others: the shard a match lands on sends the rewrite a
// stage on and records where on its own bucket, and a retraction's purge
// reaches every shard (sendPurges), so its cascade leaves from each.
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
// version (incremented by its promotion) and the shard count k. k == 0
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

// hotTracker is the engine-wide heavy-hitter detector and epoch registry.
type hotTracker struct {
	threshold int64
	window    int64
	replicas  int

	mu       sync.Mutex
	counters map[string]*hotCounter
	entries  map[string]hotEntry
}

func newHotTracker(cfg Config) *hotTracker {
	t := &hotTracker{
		threshold: int64(cfg.HotKeyThreshold),
		window:    cfg.HotKeyWindow,
		replicas:  cfg.HotKeyReplicas,
		counters:  make(map[string]*hotCounter),
		entries:   make(map[string]hotEntry),
	}
	if t.window <= 0 {
		t.window = 64
	}
	if t.replicas < 2 {
		t.replicas = 4
	}
	return t
}

// bump records one arrival for input at logical time eventT and returns
// input's entry and whether this arrival promoted it. Window accounting is
// touch-driven: a window closes when the first event past its end arrives.
func (h *hotTracker) bump(input string, eventT int64) (hotEntry, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	c := h.counters[input]
	if c == nil {
		c = &hotCounter{windowStart: eventT}
		h.counters[input] = c
	}
	if eventT-c.windowStart >= h.window {
		c.count = 0
		c.windowStart = eventT
	}
	c.count++
	entry := h.entries[input]
	if entry.hot() || c.count < h.threshold {
		return entry, false
	}
	entry = hotEntry{version: entry.version + 1, k: h.replicas}
	h.entries[input] = entry
	return entry, true
}

// observe installs the epoch a received hot frame was sent under, if newer
// than the registry's, and returns the registry's entry. Within one process
// the registry is shared, so observe changes nothing there; it is how a
// process that did not decide a promotion learns of it. Every engine of a
// ring shards an input the same k ways (Config.HotKeyReplicas): a frame of
// another k is forged, and sizes no shard loop here.
func (h *hotTracker) observe(input string, version, k int) hotEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	e := h.entries[input]
	if version > e.version && k == h.replicas {
		e = hotEntry{version: version, k: k}
		h.entries[input] = e
	}
	return e
}

// lookup returns input's entry.
func (h *hotTracker) lookup(input string) hotEntry {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.entries[input]
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
	kindHotHandoff = "hot-handoff"
)

// hotJoinMsg scatters a group of rewritten queries from the base bucket to
// shard Shard (1..K-1) of promoted input Input, under epoch Version/K. Its
// rewrites are a run of the join's own array.
type hotJoinMsg struct {
	Input    string
	Shard    int
	Version  int
	K        int
	Rewrites []rewritten
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

// hotHandoffMsg moves evaluator state from the base bucket to shard Shard
// on promotion: the rewrite set plus that shard's tuple partition. Merging
// matches newly added items against the counterpart table, so pairs split by
// the in-flight migration still meet; re-matches are absorbed by the
// subscriber-side delivery dedup.
type hotHandoffMsg struct {
	Input   string
	Shard   int
	Version int
	K       int
	Entries []vqEntry
	Tuples  []*relation.Tuple
}

func (hotHandoffMsg) Kind() string { return kindHotHandoff }

// countHotArrival runs the detector over one arrival for input at this
// (base) evaluator and returns input's entry. The arrival that promotes the
// input sends its migrate frame from here. Callers must not hold st.mu — the
// cascade delivers synchronously in the simulator and re-enters node state.
func (st *nodeState) countHotArrival(hot *hotTracker, input string, eventT int64) hotEntry {
	entry, promoted := hot.bump(input, eventT)
	if promoted {
		e := st.engine
		e.obs.hotPromotions.Add(1)
		_ = e.dispatch(st.node, []chord.Deliverable{{
			Target: e.hashInput(input),
			Msg:    hotMigrateMsg{Input: input, Version: entry.version, K: entry.k},
		}})
	}
	return entry
}

// hotScatterJoins runs the detector over a join batch arriving at this
// (base) evaluator and builds the scatter frames for promoted inputs: per run
// of rewrites bound for one input, one hotJoinMsg per shard carrying the run.
// The caller stores the rewrites locally (shard 0) and dispatches the scatter
// after releasing st.mu.
func (st *nodeState) hotScatterJoins(hot *hotTracker, rws []rewritten) []chord.Deliverable {
	e := st.engine
	var batch []chord.Deliverable
	for i := 0; i < len(rws); {
		run := rws[i : i+sameTargetRun(rws[i:])]
		i += len(run)
		input := run[0].input()
		for j := range run {
			st.countHotArrival(hot, input, run[j].Trigger.PubT())
		}
		entry := hot.lookup(input)
		for s := 1; s < entry.k; s++ {
			batch = append(batch, chord.Deliverable{
				Target: e.hashInput(hotShardInput(input, s)),
				Msg: hotJoinMsg{
					Input: input, Shard: s,
					Version: entry.version, K: entry.k,
					Rewrites: run,
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

// handleHotMigrate partitions the base bucket of a freshly promoted input:
// the full rewrite set is copied to every shard and each stored tuple whose
// content hashes to a foreign shard ships there. Shard-0 items stay — the
// base bucket is shard 0. Idempotent under re-delivery: already-shipped
// tuples are gone and the rewrite copies merge keyed.
func (st *nodeState) handleHotMigrate(m hotMigrateMsg) {
	e := st.engine
	hot := e.hot
	if hot == nil {
		return
	}
	entry := hot.observe(m.Input, m.Version, m.K)
	var entries []vqEntry
	groups := make(map[int][]*relation.Tuple) // by shard: no size taken from a frame
	shipped := 0

	st.mu.Lock()
	if qb := st.vlqt[m.Input]; qb != nil {
		entries = make([]vqEntry, 0, qb.rewrites.len())
		for _, rw := range qb.rewrites.all() {
			entries = append(entries, vqEntry{Rw: rw, Times: qb.rewrites.times(rw)})
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

// mergeAtShard is how every frame addressed to a shard lands — a scattered
// rewrite group (hot-join), a relayed tuple (hot-vl-index), the migrated
// state of a promotion (hot-handoff): it learns the frame's epoch, merges what
// the frame carries into the shard's bucket, and sends what the merge matched.
// The shard-side mirror of handleJoin's and handleVLIndex's SAI arms.
func (st *nodeState) mergeAtShard(kind, input string, shard, version, k int, rws []rewritten, entries []vqEntry, tuples []*relation.Tuple) {
	e := st.engine
	hot := e.hot
	if hot == nil {
		return
	}
	hot.observe(input, version, k)

	var mbuf [matchScratch]match
	var outs []outbound
	st.mu.Lock()
	added, dups, work, ms := st.mergeHotBucket(hotShardInput(input, shard), rws, entries, tuples, mbuf[:0], &outs)
	st.mu.Unlock()

	st.load.AddFiltering(metrics.Evaluator, 1+work)
	if added > 0 {
		st.load.AddStorage(metrics.Evaluator, added)
	}
	for ; dups > 0; dups-- {
		e.net.Traffic().RecordDuplicate(kind)
	}
	st.sendJoins(outs)
	st.sendNotifications(notifications(ms))
}

// mergeHotBucket merges rewrites — arriving (rws, each with its trigger's
// time) or migrated with the times they had collected (entries) — and tuples
// into the bucket named key with match-on-merge. Matching order keeps every
// cross pair to one meeting: added rewrites match only the tuples already
// present, then added tuples match the full (merged) rewrite set. A rewrite
// or tuple already there costs the lookup that found it; dups counts such
// tuples. It appends the matches to ms, and a chain's rewrites a stage on to
// *outs (meet). The caller holds st.mu.
func (st *nodeState) mergeHotBucket(key string, rws []rewritten, entries []vqEntry, tuples []*relation.Tuple, ms []match, outs *[]outbound) (added, dups, work int, _ []match) {
	qb, tb := st.vlqt[key], st.vltt[key]
	if len(rws)+len(entries) > 0 {
		qb = st.vlqtFor(key, len(rws)+len(entries))
	}
	storeRewrite := func(rw *rewritten, times ...int64) {
		if !qb.rewrites.record(rw, times...) {
			work++
			return
		}
		added++
		if tb == nil {
			return
		}
		for _, tt := range tb.tuples.all() {
			work++
			if matchRewrite(rw, tt) {
				ms, *outs = meet(qb, rw, tt, ms, *outs)
			}
		}
	}
	for i := range rws {
		storeRewrite(&rws[i], rws[i].Trigger.PubT())
	}
	for _, e := range entries {
		storeRewrite(e.Rw, e.Times...)
	}
	if len(tuples) > 0 {
		tb = st.vlttFor(key)
	}
	for _, t := range tuples {
		if !tb.tuples.add(t) {
			work++
			dups++
			continue
		}
		added++
		if qb == nil {
			continue
		}
		for _, rw := range qb.rewrites.all() {
			work++
			if matchRewrite(rw, t) {
				ms, *outs = meet(qb, rw, t, ms, *outs)
			}
		}
	}
	return added, dups, work, ms
}
