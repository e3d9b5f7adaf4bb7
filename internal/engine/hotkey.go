package engine

import (
	"sort"
	"strconv"

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
//     value-level input over a logical-time window of hotWindow. Crossing the
//     threshold promotes the input, for good: its evaluator splits across k
//     deterministic replica identifiers Hash(input#s<i>) (appendShardInput).
//   - A promotion is the base's own state (nodeState.hot), under the lock that
//     guards its buckets: no other node, and no other process, keeps a copy.
//     It moves with the base's arc (cut/merge), and the base fans a purge out
//     to its shards (handlePurge).
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
//   - The base counts and promotes in the locked section that stores the
//     rewrite, the lock a promotion's copy is taken under: a rewrite stored
//     before the promotion is in the copy, one stored after it is scattered.
//
// Two kinds, hot-join and hot-vl-index; tags 17 and 18, their layouts while
// they said the promotion's epoch, and 19 and 21, a promotion's migrate and
// hand-off frames before the base kept its tuples, are reserved. The layer
// runs only under SAI, whose evaluators store both sides. A chain's rewrites
// shard like any others: the shard a match lands on sends the rewrite a stage
// on and records where on its own bucket, so a retraction's purge, fanned out
// by the base, cascades from each shard.
//
// Determinism: counters are exact per-input tallies (an unbounded
// space-saving sketch — no capacity eviction, whose cross-input victim
// choice would depend on arrival interleaving), bumped by logical event
// time, so a sequential run promotes the same inputs at the same events
// every time and a uniform workload that never promotes is bit-identical
// with the layer on or off. Under concurrent publishers which arrival
// crosses the threshold depends on scheduling, and the copy-or-scatter rule
// above keeps the notification set complete whichever does.

// hotWindow is the logical-time length of the detector's counting window.
const hotWindow = 64

// hotInput is the detector's state of one value-level input at its base: the
// arrivals of the current window, and whether the input is promoted.
type hotInput struct {
	count       int64
	windowStart int64
	promoted    bool
}

// appendShardInput appends to b the input of shard i of a promoted
// value-level input. Shard 0 is the unsuffixed base input — the cold bucket
// and shard 0 are the same bucket, so promotion never moves shard-0 state.
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
	return int(contentHash(t) % uint64(k))
}

// countHot records one arrival at logical time t at the base bucket of input
// key and reports whether the input is promoted, and whether this arrival
// promoted it. Window accounting is touch-driven: a window closes when the
// first event past its end arrives. The caller holds st.mu.
func (st *nodeState) countHot(key []byte, t int64) (hot, promoted bool) {
	h := st.hot[string(key)]
	if h == nil {
		h = st.newHot(string(key), t)
	}
	if t-h.windowStart >= hotWindow {
		h.count, h.windowStart = 0, t
	}
	h.count++
	if h.promoted || h.count < int64(st.engine.cfg.HotKeyThreshold) {
		return h.promoted, false
	}
	h.promoted = true
	return true, true
}

// newHot starts the detector's state of input with a window opening at t. The
// caller holds st.mu.
func (st *nodeState) newHot(input string, t int64) *hotInput {
	if st.hot == nil {
		st.hot = make(map[string]*hotInput)
	}
	h := &hotInput{windowStart: t}
	st.hot[input] = h
	return h
}

// HotKeyState describes one currently promoted value-level input.
type HotKeyState struct {
	Input    string
	Replicas int
}

// HotKeys returns the inputs promoted at this engine's nodes, in sorted order;
// nil while the layer is off.
func (e *Engine) HotKeys() []HotKeyState {
	if e.hotK == 0 {
		return nil
	}
	var out []HotKeyState
	for _, n := range e.net.Nodes() {
		st := e.state(n)
		st.mu.Lock()
		for input, h := range st.hot {
			if h.promoted {
				out = append(out, HotKeyState{Input: input, Replicas: e.hotK})
			}
		}
		st.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Input < out[j].Input })
	return out
}

// Message kinds of the hot-key protocol.
const (
	kindHotJoin    = "hot-join"
	kindHotVLIndex = "hot-vl-index"
)

// hotJoinMsg carries rewritten queries from the base bucket to shard Shard
// (1..k-1) of promoted input Input: a run the base stored, or the base's
// rewrite set when the run promoted the input. Its rewrites are a run of the
// join's own array, or the copy's.
type hotJoinMsg struct {
	Input    string
	Shard    int
	Rewrites []rewritten
}

func (hotJoinMsg) Kind() string { return kindHotJoin }

// hotVLIndexMsg relays one tuple from the base bucket to the shard its
// content hashes to.
type hotVLIndexMsg struct {
	Input string
	Shard int
	T     *relation.Tuple
}

func (hotVLIndexMsg) Kind() string { return kindHotVLIndex }

// hotScatter runs the detector over run, rewrites of input key the base
// bucket has just stored or repeated, and appends to batch the hot-joins its
// shards are owed: run, where the input is promoted, or the bucket's whole
// rewrite set, where run promoted it. The caller holds st.mu — the lock a
// promotion's copy is taken under — and dispatches batch after releasing it.
func (st *nodeState) hotScatter(key []byte, run []rewritten, batch []chord.Deliverable) []chord.Deliverable {
	hot, promoted := false, false
	for i := range run {
		var p bool
		hot, p = st.countHot(key, run[i].Trigger.PubT())
		promoted = promoted || p
	}
	switch {
	case promoted:
		return st.promote(string(key), batch)
	case hot:
		return st.engine.hotJoins(string(key), run, batch)
	}
	return batch
}

// promote appends to batch the copies of input's rewrite set its shards are
// sent when the input is promoted. The caller holds st.mu.
func (st *nodeState) promote(input string, batch []chord.Deliverable) []chord.Deliverable {
	st.engine.obs.hotPromotions.Add(1)
	qb := st.vl[vlHash([]byte(input))].q
	if qb == nil || qb.rewrites.len() == 0 {
		return batch
	}
	set := make([]rewritten, qb.rewrites.len())
	for i, rw := range qb.rewrites.all() {
		set[i] = *rw
	}
	return st.engine.hotJoins(input, set, batch)
}

// hotJoins appends to batch one hot-join carrying rws to each shard 1..k-1
// of promoted input.
func (e *Engine) hotJoins(input string, rws []rewritten, batch []chord.Deliverable) []chord.Deliverable {
	var buf [keyScratch]byte
	for s := 1; s < e.hotK; s++ {
		batch = append(batch, chord.Deliverable{
			Target: vlHash(appendShardInput(buf[:0], input, s)),
			Msg:    hotJoinMsg{Input: input, Shard: s, Rewrites: rws},
		})
	}
	return batch
}

// relayHot runs the detector over tuple t arriving at the base bucket of
// input key and, where the input is promoted and t's content hashes to a
// foreign shard, relays t there; it reports whether it did. The arrival that
// promotes the input copies the rewrite set first, in the section that
// counted it. The relay costs the base one filtering unit; the matching and
// storage work lands on the shard.
func (st *nodeState) relayHot(key []byte, t *relation.Tuple) bool {
	e := st.engine
	var copies []chord.Deliverable
	st.mu.Lock()
	hot, promoted := st.countHot(key, t.PubT())
	if promoted {
		copies = st.promote(string(key), nil)
	}
	st.mu.Unlock()
	_ = e.dispatch(st.node, copies)
	if !hot {
		return false
	}
	shard := shardOf(t, e.hotK)
	if shard == 0 {
		return false
	}
	st.load.AddFiltering(metrics.Evaluator, 1)
	e.obs.hotForwards.Add(kindVLIndex, 1)
	input := string(key)
	var buf [keyScratch]byte
	_ = e.dispatch(st.node, []chord.Deliverable{{
		Target: vlHash(appendShardInput(buf[:0], input, shard)),
		Msg:    hotVLIndexMsg{Input: input, Shard: shard, T: t},
	}})
	return true
}

// hotShard reports whether shard names one of 1..k-1 here. The field comes
// off the wire: a frame naming another stores nothing.
func (e *Engine) hotShard(shard int) bool { return shard >= 1 && shard < e.hotK }

// handleHotJoin lands rewrites at a shard: its bucket takes the rewrites of
// queries this process did not retract, as handleJoin's does.
func (st *nodeState) handleHotJoin(m hotJoinMsg) {
	if !st.engine.hotShard(m.Shard) {
		return
	}
	rws := st.engine.liveRewrites(m.Rewrites)
	var buf [keyScratch]byte
	var mbuf [matchScratch]match
	work := 1
	st.mu.Lock()
	ms, outs := st.joinAt(vlHash(appendShardInput(buf[:0], m.Input, m.Shard)), rws, &work, mbuf[:0], nil)
	st.mu.Unlock()
	st.evaluated(work, ms, outs)
}

// handleHotVLIndex lands a relayed tuple at a shard: its bucket takes the
// tuple as handleVLIndex's does.
func (st *nodeState) handleHotVLIndex(m hotVLIndexMsg) {
	if !st.engine.hotShard(m.Shard) {
		return
	}
	var buf [keyScratch]byte
	st.tupleAt(m.Kind(), vlHash(appendShardInput(buf[:0], m.Input, m.Shard)), m.T)
}

// hotSection is the wire form of one input's detector state at its base
// (nodeState.hot), as a hand-off or snapshot carries it.
type hotSection struct {
	Input       string
	Count       int64
	WindowStart int64
	Promoted    bool
}

// mergeHot installs sec at this node, the input's base: the later window's
// count, the larger where both are one window's, and a promotion either side
// made. Merged twice it adds nothing. The caller holds st.mu.
func (st *nodeState) mergeHot(sec hotSection) {
	h := st.hot[sec.Input]
	if h == nil {
		h = st.newHot(sec.Input, sec.WindowStart)
	}
	switch {
	case sec.WindowStart > h.windowStart:
		h.count, h.windowStart = sec.Count, sec.WindowStart
	case sec.WindowStart == h.windowStart:
		h.count = max(h.count, sec.Count)
	}
	h.promoted = h.promoted || sec.Promoted
}
