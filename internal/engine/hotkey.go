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
//     promotes the input, for good: its evaluator splits across k
//     deterministic replica identifiers Hash(hotShardInput(input, i)).
//   - The base is shard 0. It keeps the tuples it stored and stores every
//     rewrite that reaches it, so a promotion moves only the rewrite set: the
//     handler whose arrival promoted copies it to shards 1..k-1, and every
//     rewrite the base stores later is scattered there too (hot-join). Each
//     shard holds the full rewrite set.
//   - Tuples partition: the base relays each later tuple to the one shard
//     its content hashes to (hot-vl-index), so matching and storage spread
//     ~k ways. Matches gather back through the ordinary notification path.
//   - A shard is an ordinary SAI evaluator of its own bucket: a frame lands
//     through the retraction filter and the store-and-match bodies of
//     handleJoin and handleVLIndex (joinAt, tupleAt). Whichever of a rewrite
//     and a tuple reaches it second meets the first, as at any evaluator.
//   - The base reads an input's epoch in the locked section that stores the
//     rewrite, the lock a promotion's copy is taken under: a rewrite stored
//     before the promotion is in the copy, one stored after it is scattered.
//
// Two kinds, hot-join and hot-vl-index; tags 19 and 21, a promotion's
// migrate and hand-off frames before the base kept its tuples, are reserved.
// The layer runs only under SAI, whose evaluators store both sides. A
// chain's rewrites shard like any others: the shard a match lands on sends
// the rewrite a stage on and records where on its own bucket, and a
// retraction's purge reaches every shard (sendPurges), so its cascade leaves
// from each.
//
// Determinism: counters are exact per-input tallies (an unbounded
// space-saving sketch — no capacity eviction, whose cross-input victim
// choice would depend on arrival interleaving), bumped by logical event
// time, so a sequential run promotes the same inputs at the same events
// every time and a uniform workload that never promotes is bit-identical
// with the layer on or off. Concurrent publishers share the tracker under
// its mutex: which arrival crosses the threshold then depends on
// scheduling, and the copy-or-scatter rule above keeps the notification
// set complete whichever does.

// hotShardInput names shard i of a promoted value-level input. Shard 0 is
// the unsuffixed base input — the cold bucket and shard 0 are the same
// bucket, so promotion never moves shard-0 state.
func hotShardInput(input string, shard int) string {
	if shard == 0 {
		return input
	}
	return string(appendShardInput(make([]byte, 0, len(input)+5), input, shard))
}

// appendShardInput appends hotShardInput(input, shard) to b.
func appendShardInput(b []byte, input string, shard int) []byte {
	b = append(b, input...)
	if shard == 0 {
		return b
	}
	b = append(b, '#', 's')
	return strconv.AppendInt(b, int64(shard), 10)
}

// shardOf deterministically assigns a tuple to one of k shards by hashing
// its content identity. Content-based (not engine-local) so every relay of
// one tuple, from whichever process holds the base, reaches one shard.
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
)

// hotJoinMsg carries rewritten queries from the base bucket to shard Shard
// (1..K-1) of promoted input Input, under epoch Version/K: a run the base
// stored, or the base's rewrite set when the run promoted the input. Its
// rewrites are a run of the join's own array, or the copy's.
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

// hotScatter runs the detector over run, rewrites of one input the base
// bucket has just stored or repeated, and appends to batch the hot-joins its
// shards are owed: run, where the input is promoted, or the bucket's whole
// rewrite set, where run promoted it. The caller holds st.mu — the lock a
// promotion's copy is taken under — and dispatches batch after releasing it.
func (st *nodeState) hotScatter(hot *hotTracker, run []rewritten, batch []chord.Deliverable) []chord.Deliverable {
	input := run[0].input()
	var entry hotEntry
	promoted := false
	for i := range run {
		var p bool
		entry, p = hot.bump(input, run[i].Trigger.PubT())
		promoted = promoted || p
	}
	if promoted {
		return st.promote(input, entry, batch)
	}
	return st.engine.hotJoins(input, entry, run, batch)
}

// promote appends to batch the copies of input's rewrite set its shards are
// sent when the input is promoted to entry. Each copy lands with its own
// trigger's time; the times later repeats added stay at the base. The caller
// holds st.mu.
func (st *nodeState) promote(input string, entry hotEntry, batch []chord.Deliverable) []chord.Deliverable {
	st.engine.obs.hotPromotions.Add(1)
	qb := st.vlqt[input]
	if qb == nil || qb.rewrites.len() == 0 {
		return batch
	}
	set := make([]rewritten, qb.rewrites.len())
	for i, rw := range qb.rewrites.all() {
		set[i] = *rw
	}
	return st.engine.hotJoins(input, entry, set, batch)
}

// hotJoins appends to batch one hot-join carrying rws to each shard 1..k-1
// of input (none while input is cold).
func (e *Engine) hotJoins(input string, entry hotEntry, rws []rewritten, batch []chord.Deliverable) []chord.Deliverable {
	for s := 1; s < entry.k; s++ {
		batch = append(batch, chord.Deliverable{
			Target: e.hashInput(hotShardInput(input, s)),
			Msg: hotJoinMsg{
				Input: input, Shard: s,
				Version: entry.version, K: entry.k,
				Rewrites: rws,
			},
		})
	}
	return batch
}

// relayHot runs the detector over tuple t arriving at the base bucket of
// input and, where the input is promoted and t's content hashes to a foreign
// shard, relays t there; it reports whether it did. The arrival that promotes
// the input copies the rewrite set first. The relay costs the base one
// filtering unit; the matching and storage work lands on the shard.
func (st *nodeState) relayHot(hot *hotTracker, input string, t *relation.Tuple) bool {
	e := st.engine
	entry, promoted := hot.bump(input, t.PubT())
	if promoted {
		st.mu.Lock()
		copies := st.promote(input, entry, nil)
		st.mu.Unlock()
		_ = e.dispatch(st.node, copies)
	}
	shard := shardOf(t, entry.k)
	if shard == 0 {
		return false
	}
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
	return true
}

// handleHotJoin lands rewrites at a shard: it learns the frame's epoch, and
// the shard's bucket takes the rewrites of queries not retracted here as
// handleJoin's does.
func (st *nodeState) handleHotJoin(m hotJoinMsg) {
	hot := st.engine.hot
	if hot == nil {
		return
	}
	hot.observe(m.Input, m.Version, m.K)
	rws := st.liveRewrites(m.Rewrites)
	var buf [keyScratch]byte
	var mbuf [matchScratch]match
	n := tally{work: 1}
	st.mu.Lock()
	ms, outs := st.joinAt(appendShardInput(buf[:0], m.Input, m.Shard), rws, &n, mbuf[:0], nil)
	st.mu.Unlock()
	st.evaluated(n, ms, outs)
}

// handleHotVLIndex lands a relayed tuple at a shard: it learns the frame's
// epoch, and the shard's bucket takes the tuple as handleVLIndex's does.
func (st *nodeState) handleHotVLIndex(m hotVLIndexMsg) {
	hot := st.engine.hot
	if hot == nil {
		return
	}
	hot.observe(m.Input, m.Version, m.K)
	var buf [keyScratch]byte
	st.tupleAt(m.Kind(), appendShardInput(buf[:0], m.Input, m.Shard), m.T)
}
