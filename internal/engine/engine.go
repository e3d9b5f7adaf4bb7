// Package engine implements the paper's primary contribution (Chapter 4):
// four distributed algorithms for evaluating continuous two-way equi-join
// queries over a DHT — SAI (single-attribute indexing), DAI-Q, DAI-T and
// DAI-V (double-attribute indexing) — together with the two-level
// ALQT/VLQT/VLTT hash tables of Section 4.3.5, notification creation and delivery (Section 4.6), and the optimizations
// of Section 4.7: the Join Fingers Routing Table and attribute-level
// replication.
//
// The engine installs itself as the message handler of every overlay node;
// query submissions and tuple insertions become overlay messages whose hops
// are charged to the network's traffic ledger, and each node accrues
// filtering (TF) and storage (TS) load in its metrics.Load, reproducing the
// measurement model of Chapter 5.
package engine

import (
	"fmt"
	"math/rand"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/lockdep"
	"cqjoin/internal/metrics"
	"cqjoin/internal/obs"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// Algorithm selects the query-processing protocol.
type Algorithm int

const (
	// SAI indexes each query under one join attribute (Section 4.3).
	SAI Algorithm = iota
	// DAIQ indexes under both join attributes; evaluators store tuples and
	// create notifications when rewritten queries arrive (Section 4.4.2).
	DAIQ
	// DAIT indexes under both join attributes; evaluators store rewritten
	// queries and create notifications when tuples arrive. Rewriters never
	// reindex the same rewritten query twice (Section 4.4.3).
	DAIT
	// DAIV indexes under both sides and maps rewritten queries to
	// evaluators by the value of the join-condition side alone, supporting
	// type-T2 queries (Section 4.5).
	DAIV
)

// String names the algorithm as the paper does.
func (a Algorithm) String() string {
	switch a {
	case SAI:
		return "SAI"
	case DAIQ:
		return "DAI-Q"
	case DAIT:
		return "DAI-T"
	case DAIV:
		return "DAI-V"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Config parameterizes an Engine. cqjoin.NewCluster builds the one every
// daemon, example and benchmark runs; internal/exp.Setup builds the paper's.
type Config struct {
	// Algorithm selects the protocol. The zero value is SAI. Set by
	// cqjoin.NewCluster, internal/exp and tests.
	Algorithm Algorithm
	// Strategy picks the index attribute for SAI queries (Section 4.3.6).
	// The zero value is StrategyRandom. Set by cqjoin.NewCluster,
	// internal/exp and tests.
	Strategy Strategy
	// UseJFRT enables the Join Fingers Routing Table (Section 4.7.1):
	// rewriters cache evaluator addresses so repeat reindexing costs one
	// hop instead of O(log N). Set by cqjoin.NewCluster, internal/exp
	// (F5.2) and tests.
	UseJFRT bool
	// ReplicationFactor k replicates the rewriter role of every attribute
	// over k nodes (Section 4.7.2). Queries are indexed at all replicas;
	// each incoming tuple is routed to one replica chosen by its attribute
	// value, splitting the filtering load. Values < 2 disable replication.
	// Set by internal/exp (F5.6, F5.7) and tests.
	ReplicationFactor int
	// DAIVKeyed enables the Section 4.5 extension of DAI-V that computes
	// evaluator identifiers as Key(q) + valJC: every query gets private
	// evaluators (best load spread, supports an even more expressive query
	// class) but rewritten queries can no longer be grouped, multiplying
	// traffic by roughly the number of co-triggered queries. Set by
	// internal/exp (the DAI-V ablation) and tests.
	DAIVKeyed bool
	// Window is the sliding-window length in logical time units: evaluator
	// tuples older than Window are evicted. Zero keeps tuples forever. Set by
	// cqjoin.NewCluster, internal/exp and tests.
	Window int64
	// Seed drives the engine's private randomness (random index-attribute
	// choices). The same seed reproduces the same run. Set by
	// cqjoin.NewCluster, internal/exp.Setup and tests.
	Seed int64
	// MaxRetries bounds how many times a sender re-sends a message whose
	// synchronous delivery ack is missing (dropped, delayed, or dead
	// destination), advancing the logical clock by 1 before each attempt so
	// delayed in-flight copies land (the chaos layer drains its delay queue
	// on clock listeners). Zero disables retries — the paper's best-effort
	// semantics (Section 3.2), and the right setting for fault-free runs.
	// Chaos runs set it high enough that loss of all attempts is
	// statistically negligible (p_drop^(1+MaxRetries)). Set by the chaos,
	// restart and sim-vs-TCP suites, nothing else: no daemon flag or
	// cqjoin.Config field reaches it.
	MaxRetries int
	// HotKeyThreshold enables adaptive hot-key sharding (DESIGN.md §13)
	// when positive: a value-level input receiving at least this many
	// arrivals within one window of 64 units of logical time (hotWindow)
	// promotes, sharding its evaluator across HotKeyReplicas deterministic
	// replica identifiers, for good. Zero — the default — disables the layer
	// entirely. Only SAI shards (its evaluators store both rewrites and
	// tuples, so a shard's rewrite and tuple meet in either order); other
	// algorithms ignore these knobs. Set by cqjoin.NewCluster and tests.
	HotKeyThreshold int
	// HotKeyReplicas is the shard count k of a promoted input. Values < 2
	// default to 4. Set by cqjoin.NewCluster and tests.
	HotKeyReplicas int
	// BlindIndexing selects the paper's tuple indexing (Section 4.2): the
	// publisher sends every tuple to all 2h identifiers and no rewriter
	// forwards one. False — the default — indexes on demand: the publisher
	// reaches the h attribute-level ones, whose rewriters forward to the value
	// level while a live query reads tuples there (handleALIndex) and tell a
	// publisher that asks when none reads them at all, which it then skips
	// until told otherwise (dispatchHinted) — fewer hops and bytes where half
	// or more of a relation's attributes carry no query, more hops where all do
	// (EXPERIMENTS.md X4.2). Set by
	// internal/exp.Setup — the paper's tables measure the paper's protocol —
	// and tests of the 2h count, nothing else; a ring runs one mode.
	BlindIndexing bool
	// Obs receives the engine's metrics ("engine.*": notification outcomes,
	// hot-key sharding, indexing on demand, hint tables). Nil — the default —
	// disables recording at zero cost; because recording never influences
	// protocol decisions, a run is bit-identical with or without a registry.
	// Set by cqjoin.NewCluster (cqjoin.Config.Obs, the daemon's registry) and
	// tests; internal/exp.Setup hands it to the overlay too.
	Obs *obs.Registry
}

// Engine coordinates query processing over one overlay.
type Engine struct {
	cfg     Config
	net     *chord.Network
	catalog *relation.Catalog
	obs     engObs
	alIDs   map[relAttr][]alIdent // read-only after New (alKey)
	alOrds  map[string]int        // attribute-level input -> alIdent.ord; read-only after New
	hotK    int                   // shard count k of a promoted input; 0 while hot-key sharding is off
	memo    *wire.Memo            // WireCodec's: what a receiving process has decoded

	retracted retractions // the queries a node of this process retracted (unsubscribe.go)

	mu        lockdep.Mutex[engineMu]
	states    map[*chord.Node]*nodeState
	seq       map[string]int      // per-subscriber query sequence numbers
	subs      map[string]standing // query key -> the query its subscriber here indexed
	rng       *rand.Rand
	onNotify  func(Notification)
	delivered deliveredSet   // the typed identity of every match delivered: the receiver-side dedupe
	legacy    deliveredSet   // the text identities a parent's snapshot listed (snapMetaMsg.Delivered)
	count     int            // notifications delivered since the last ResetNotifications
	sink      []Notification // those of them no onNotify callback was installed to take
}

type engineMu struct{} // Engine.mu's lock class

// New creates an engine over the given overlay and schema catalog, has the
// overlay price its messages by their encodings (sizeAfter), and attaches it
// to every node currently in the overlay. Nodes joining later must be
// attached with Attach.
func New(net *chord.Network, catalog *relation.Catalog, cfg Config) *Engine {
	if cfg.ReplicationFactor < 2 {
		cfg.ReplicationFactor = 1
	}
	e := &Engine{
		cfg:     cfg,
		net:     net,
		catalog: catalog,
		obs:     newEngObs(cfg.Obs),
		states:  make(map[*chord.Node]*nodeState),
		seq:     make(map[string]int),
		subs:    make(map[string]standing),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		memo:    new(wire.Memo),
	}
	e.alIDs, e.alOrds = alIdents(catalog, cfg.ReplicationFactor)
	if cfg.HotKeyThreshold > 0 && cfg.Algorithm == SAI {
		e.hotK = cfg.HotKeyReplicas
		if e.hotK < 2 {
			e.hotK = 4
		}
	}
	net.SetSizer(sizeAfter)
	for _, n := range net.Nodes() {
		e.Attach(n)
	}
	return e
}

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// Network returns the overlay the engine runs on.
func (e *Engine) Network() *chord.Network { return e.net }

// Attach installs the engine as node n's message handler and allocates its
// query-processing state.
func (e *Engine) Attach(n *chord.Node) *nodeState {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st, ok := e.states[n]; ok {
		return st
	}
	st := newNodeState(e, n)
	e.states[n] = st
	n.SetHandler(st)
	return st
}

// Detach forgets node n's state (after it left the overlay for good).
func (e *Engine) Detach(n *chord.Node) {
	e.mu.Lock()
	defer e.mu.Unlock()
	delete(e.states, n)
}

// state returns the node's processing state, attaching lazily so nodes that
// joined after New participate transparently.
func (e *Engine) state(n *chord.Node) *nodeState {
	e.mu.Lock()
	st, ok := e.states[n]
	e.mu.Unlock()
	if ok {
		return st
	}
	return e.Attach(n)
}

// MoveNode re-positions a peer at a new ring identifier — the attribute-
// level load-balancing move of Section 4.7.2 (Figure 4.7). Placing an
// underloaded peer exactly at a hot identifier (id.Hash of the hot
// attribute input) makes it the new owner of that rewriter role; the ALQT
// bucket and all other stored items of the arc move with the ownership.
func (e *Engine) MoveNode(n *chord.Node, to id.ID) (*chord.Node, error) {
	moved, err := e.net.MoveNode(n, to)
	if err != nil {
		return nil, err
	}
	e.Detach(n)
	// chord.MoveNode carries the previous incarnation's handler over; the
	// engine instead binds the fresh per-node state (created lazily during
	// the join's key hand-off) so loads and tables follow the new node.
	st := e.Attach(moved)
	moved.SetHandler(st)
	return moved, nil
}

// OnNotify installs a callback invoked for every notification delivered to
// its subscriber (including replayed stored notifications). The notifications
// are the callback's from then on: while one is installed the engine keeps a
// delivered notification's identity and counts it, nothing more. A nil fn
// removes the callback, and the engine records again.
func (e *Engine) OnNotify(fn func(Notification)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.onNotify = fn
}

// Notifications returns a copy of every notification delivered while no
// OnNotify callback was installed to take it, in delivery order.
func (e *Engine) Notifications() []Notification {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Notification, len(e.sink))
	copy(out, e.sink)
	return out
}

// NotificationCount returns how many notifications have been delivered since
// the last ResetNotifications, to a callback or into the record.
func (e *Engine) NotificationCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.count
}

// ResetNotifications clears the delivered-notification record and its count
// (the load and traffic ledgers are reset through their own types). What has
// been delivered stays known as delivered.
func (e *Engine) ResetNotifications() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.sink = nil
	e.count = 0
}

func (e *Engine) record(n Notification) {
	var buf [keyScratch]byte
	e.mu.Lock()
	if e.legacy.len() > 0 && e.legacy.has(n.appendTextIdentity(buf[:0])) || !e.delivered.add(e.delivered.identity(buf[:0], n)) {
		// A duplicated or replayed delivery of a match the subscriber has
		// already consumed: suppress it. This is the receiver-side half of
		// at-least-once delivery. A match a parent build's snapshot
		// listed is known by its text identity alone (snapMetaMsg.Delivered).
		e.mu.Unlock()
		e.net.Traffic().RecordDuplicate("notification")
		return
	}
	e.count++
	fn := e.onNotify
	if fn == nil {
		e.sink = append(e.sink, n) // nobody to hand it to
		e.mu.Unlock()
		return
	}
	e.mu.Unlock()
	fn(n)
}

// DeliveredContentKeys returns the content key of every notification in the
// record (Notifications), in delivery order — the identity under which runs
// are compared against the centralized oracle.
func (e *Engine) DeliveredContentKeys() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, len(e.sink))
	for i, n := range e.sink {
		out[i] = n.ContentKey()
	}
	return out
}

// KnownDeliveryKeys returns the delivery identity, in DeliveryKeys' form, of
// every match the engine knows as delivered, whether or not a consumer took
// it, in deliveredSet.each's order, which is not the order recorded; those a
// parent build's snapshot listed follow.
// The form says a value without its kind, so S("1") and N(1) render alike.
func (e *Engine) KnownDeliveryKeys() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, e.delivered.len()+e.legacy.len())
	e.delivered.each(func(id []byte) { out = append(out, e.delivered.render(id)) })
	e.legacy.each(func(id []byte) { out = append(out, textIdentityKey(id)) })
	return out
}

// Subscribe indexes a continuous query on behalf of node from, assigning it
// a fresh key Key(q) and insertion time, and returns the identified query.
// The query must be type T1 unless the engine runs DAI-V (Section 4.5),
// the only algorithm evaluating type-T2 queries. A chain of k > 2 relations
// needs SAI or DAI-Q, which store tuples at the value level.
func (e *Engine) Subscribe(from *chord.Node, q *query.Query) (*query.Query, error) {
	if !from.Alive() {
		return nil, fmt.Errorf("engine: subscribe from departed node %s", from)
	}
	if q.Arity() > 2 && e.cfg.Algorithm != SAI && e.cfg.Algorithm != DAIQ {
		return nil, fmt.Errorf("engine: multi-way joins need value-level tuple storage; run SAI or DAI-Q, not %s", e.cfg.Algorithm)
	}
	if q.Type() == query.T2 && e.cfg.Algorithm != DAIV {
		return nil, fmt.Errorf("engine: %s cannot evaluate type-T2 query %q; use DAI-V", e.cfg.Algorithm, q)
	}
	e.mu.Lock()
	e.seq[from.Key()]++
	seq := e.seq[from.Key()]
	e.mu.Unlock()
	// The insertion time is drawn on the way (sendQueryIndex).
	return e.indexQuery(from, q.WithIdentity(from.Key(), from.IP(), seq))
}

// Publish inserts a tuple into the network on behalf of node from, stamping
// its publication time, and runs the full two-phase evaluation: the tuple
// is indexed per Section 4.2, triggers queries at rewriters, rewritten
// queries reach evaluators and notifications flow back to subscribers —
// all before Publish returns (the simulator delivers synchronously).
func (e *Engine) Publish(from *chord.Node, t *relation.Tuple) (*relation.Tuple, error) {
	if !from.Alive() {
		return nil, fmt.Errorf("engine: publish from departed node %s", from)
	}
	if e.catalog.Lookup(t.Relation()) == nil {
		return nil, fmt.Errorf("engine: relation %s not in catalog", t.Relation())
	}
	tt := t.WithPubT(e.net.Clock().Tick())
	if err := e.indexTuple(from, tt); err != nil {
		return nil, err
	}
	return tt, nil
}

// LoadOf returns node n's load counters.
func (e *Engine) LoadOf(n *chord.Node) *metrics.Load {
	return &e.state(n).load
}

// FilteringLoads returns every alive node's total filtering load (TF), in
// ring order.
func (e *Engine) FilteringLoads() []int64 {
	nodes := e.net.Nodes()
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		out[i] = e.state(n).load.TotalFiltering()
	}
	return out
}

// StorageLoads returns every alive node's total storage load (TS), in ring
// order, counted off its tables (holding).
func (e *Engine) StorageLoads() []int64 {
	nodes := e.net.Nodes()
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		h := e.state(n).holding()
		out[i] = h.storage(metrics.Rewriter) + h.storage(metrics.Evaluator)
	}
	return out
}

// RoleLoads returns per-node loads restricted to one role and metric,
// feeding the rewriter-vs-evaluator split of Figure 5.11.
func (e *Engine) RoleLoads(role metrics.Role, storage bool) []int64 {
	nodes := e.net.Nodes()
	out := make([]int64, len(nodes))
	for i, n := range nodes {
		if st := e.state(n); storage {
			out[i] = st.holding().storage(role)
		} else {
			out[i] = st.load.Filtering(role)
		}
	}
	return out
}

// ResetLoads zeroes every node's filtering load, typically after warm-up.
// The storage load is a level, read off the tables, and has nothing to reset.
func (e *Engine) ResetLoads() {
	for _, n := range e.net.Nodes() {
		e.state(n).load.Reset()
	}
}

// EvictExpired applies the sliding window across all nodes, removing stored
// tuples whose publication time has fallen out of the window. It is a
// no-op when Config.Window is zero.
func (e *Engine) EvictExpired() {
	if e.cfg.Window <= 0 {
		return
	}
	cutoff := e.net.Clock().Now() - e.cfg.Window
	for _, n := range e.net.Nodes() {
		e.state(n).evictBefore(cutoff)
	}
}

// randIntn returns a deterministic pseudo-random int in [0, n) from the
// engine's seeded source.
func (e *Engine) randIntn(n int) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.rng.Intn(n)
}
