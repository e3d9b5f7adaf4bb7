// Package cqjoin is a library for continuous two-way equi-join query
// processing over large structured overlay networks, reproducing
// Idreos/Tryfonopoulos/Koubarakis, "Distributed Evaluation of Continuous
// Equi-join Queries over Large Structured Overlay Networks" (ICDE 2006).
//
// A Cluster simulates a Chord overlay of cooperating peers. Every peer can
// insert relational tuples (Publish) and pose continuous SQL join queries
// (Subscribe); the network's nodes collaborate through two-level
// distributed indexing to deliver a notification to the subscriber whenever
// a newly inserted pair of tuples satisfies a query:
//
//	catalog := cqjoin.MustCatalog(
//		cqjoin.MustSchema("Document", "Id", "Title", "Conference", "AuthorId"),
//		cqjoin.MustSchema("Authors", "Id", "Name", "Surname"),
//	)
//	cluster, _ := cqjoin.NewCluster(cqjoin.Config{Nodes: 128, Catalog: catalog})
//	alice := cluster.Node(0)
//	alice.Subscribe(`SELECT D.Title, D.Conference
//	                 FROM Document AS D, Authors AS A
//	                 WHERE D.AuthorId = A.Id AND A.Surname = 'Smith'`)
//	cluster.OnNotify(func(n cqjoin.Notification) { fmt.Println(n) })
//	bob := cluster.Node(1)
//	bob.Publish("Authors", 17, "John", "Smith")
//	bob.Publish("Document", 1, "P2P Joins", "ICDE", 17)
//
// Four algorithms are available — SAI, DAIQ, DAIT and DAIV; the Join Fingers
// Routing Table, the index-attribute strategies and hot-key sharding are
// switchable through Config. See DESIGN.md for the full map from the paper to
// this implementation.
package cqjoin

import (
	"fmt"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/metrics"
	"cqjoin/internal/obs"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Re-exported data-model types. Internal packages are not importable by
// library users; these aliases are the public names.
type (
	// Schema describes a relation: name plus ordered attributes.
	Schema = relation.Schema
	// Catalog is the set of co-existing schemas a cluster serves.
	Catalog = relation.Catalog
	// Tuple is one row of a relation with its publication time.
	Tuple = relation.Tuple
	// Value is a string or numeric attribute value.
	Value = relation.Value
	// ValueKind is the runtime type of a Value.
	ValueKind = relation.Kind
	// Query is a parsed continuous equi-join query: two relations, or a
	// chain of more (the Chapter 7 extension).
	Query = query.Query
	// Notification is a query answer delivered to a subscriber.
	Notification = engine.Notification
	// Algorithm selects the query-processing protocol.
	Algorithm = engine.Algorithm
	// Strategy selects SAI's index attribute (random, min-rate, min-domain).
	Strategy = engine.Strategy
	// Traffic is the overlay-hop and message ledger.
	Traffic = metrics.Traffic
	// Distribution summarizes how load spreads across nodes.
	Distribution = metrics.Distribution
	// HotKeyState describes one value-level input promoted by adaptive
	// hot-key sharding.
	HotKeyState = engine.HotKeyState
)

// The available algorithms (Chapter 4).
const (
	SAI  = engine.SAI
	DAIQ = engine.DAIQ
	DAIT = engine.DAIT
	DAIV = engine.DAIV
)

// The value kinds.
const (
	StringKind = relation.String
	NumberKind = relation.Number
)

// The index-attribute strategies for SAI (Section 4.3.6).
const (
	StrategyRandom    = engine.StrategyRandom
	StrategyMinRate   = engine.StrategyMinRate
	StrategyMinDomain = engine.StrategyMinDomain
	StrategyLeft      = engine.StrategyLeft
)

// Data-model constructors, re-exported.
var (
	// S builds a string Value.
	S = relation.S
	// N builds a numeric Value.
	N = relation.N
	// NewSchema and MustSchema build relation schemas.
	NewSchema  = relation.NewSchema
	MustSchema = relation.MustSchema
	// NewCatalog and MustCatalog build schema catalogs.
	NewCatalog  = relation.NewCatalog
	MustCatalog = relation.MustCatalog
	// NewTuple and MustTuple build tuples.
	NewTuple  = relation.NewTuple
	MustTuple = relation.MustTuple
)

// Config parameterizes a Cluster. daemon.New, the examples and the
// benchmark are its callers in this repository.
type Config struct {
	// Nodes is the initial overlay size. Must be at least 1. Set by every
	// caller.
	Nodes int
	// Catalog declares the relations tuples and queries may reference. Set
	// by every caller.
	Catalog *Catalog
	// Algorithm selects the protocol; the zero value is SAI. Set by
	// daemon.New (-algorithm), the examples and tests.
	Algorithm Algorithm
	// Strategy selects SAI's index-attribute choice; zero is random. Set by
	// the examples.
	Strategy Strategy
	// UseJFRT enables the Join Fingers Routing Table (Section 4.7.1). Set by
	// daemon.New (-jfrt), the examples and tests.
	UseJFRT bool
	// Window is the sliding window in logical time units; 0 keeps stored
	// tuples forever. Set by the marketfeed example.
	Window int64
	// Seed makes runs reproducible. Set by daemon.New (-seed), the benchmark
	// and tests.
	Seed int64

	// HotKeyThreshold arms adaptive hot-key sharding (SAI only): a
	// value-level input whose event count crosses the threshold within one
	// detection window of 64 logical time units is promoted to a replica
	// group. 0 disables the layer. Set by daemon.New (-hot-threshold).
	HotKeyThreshold int
	// HotKeyReplicas is the promoted replica-group size; values < 2
	// default to 4. Set by daemon.New (-hot-replicas).
	HotKeyReplicas int

	// Obs receives the engine's metrics ("engine.*"); nil records nothing.
	// The overlay records none of its own. Set by daemon.New (its registry,
	// which the stats op reports).
	Obs *obs.Registry
}

// Durability receives every mutating operation a Cluster routes through
// it instead of calling the engine directly, so a write-ahead log can make
// the op durable after it applies. *durable.Store is the implementation;
// the interface keeps this package free of a durable dependency.
type Durability interface {
	Subscribe(from *chord.Node, q *query.Query) (*query.Query, error)
	Unsubscribe(from *chord.Node, q *query.Query) error
	Publish(from *chord.Node, t *relation.Tuple) (*relation.Tuple, error)
}

// Cluster is a simulated overlay network running the continuous-join
// engine. All methods are safe for concurrent use.
type Cluster struct {
	net     *chord.Network
	eng     *engine.Engine
	catalog *Catalog
	durable Durability // nil: ops go straight to the engine
}

// NewCluster builds an overlay of cfg.Nodes peers with exact routing state
// and attaches the query-processing engine to every node.
func NewCluster(cfg Config) (*Cluster, error) {
	if cfg.Nodes < 1 {
		return nil, fmt.Errorf("cqjoin: cluster needs at least 1 node, got %d", cfg.Nodes)
	}
	if cfg.Catalog == nil {
		return nil, fmt.Errorf("cqjoin: cluster needs a catalog")
	}
	net := chord.New(chord.Config{})
	net.AddNodes("peer", cfg.Nodes)
	eng := engine.New(net, cfg.Catalog, engine.Config{
		Algorithm:       cfg.Algorithm,
		Strategy:        cfg.Strategy,
		UseJFRT:         cfg.UseJFRT,
		Window:          cfg.Window,
		Seed:            cfg.Seed,
		HotKeyThreshold: cfg.HotKeyThreshold,
		HotKeyReplicas:  cfg.HotKeyReplicas,
		Obs:             cfg.Obs,
	})
	return &Cluster{net: net, eng: eng, catalog: cfg.Catalog}, nil
}

// Size returns the number of alive peers.
func (c *Cluster) Size() int { return c.net.Size() }

// Node returns peer i (in ring order, modulo the overlay size).
func (c *Cluster) Node(i int) *Node { return &Node{c: c, n: c.net.NodeAt(i)} }

// NodeByKey returns the alive peer with the given key, or nil.
func (c *Cluster) NodeByKey(key string) *Node {
	n := c.net.NodeByKey(key)
	if n == nil {
		return nil
	}
	return &Node{c: c, n: n}
}

// Standing returns the standing query whose key a subscribe of this cluster
// returned, or nil once it is retracted. It survives a restart from a state
// directory, whose snapshot and log keep the query; one restored from a
// snapshot an older build wrote, which kept only its key, is nil.
func (c *Cluster) Standing(key string) *Query { return c.eng.Standing(key) }

// Join adds a peer with the given key; ring state and stored items are
// handed off exactly as Chord prescribes, including any notifications
// stored while this key was offline.
func (c *Cluster) Join(key string) (*Node, error) {
	n, err := c.net.Join(key)
	if err != nil {
		return nil, err
	}
	c.eng.Attach(n)
	return &Node{c: c, n: n}, nil
}

// Overlay exposes the underlying chord overlay — for installing a custom
// delivery transport (multi-process deployments install a TCP transport
// here) or inspecting the ring. The simulated in-process transport stays
// in effect unless replaced.
func (c *Cluster) Overlay() *chord.Network { return c.net }

// Engine exposes the embedded query engine — durability layers replay a
// recovered log through it before the cluster serves traffic.
func (c *Cluster) Engine() *engine.Engine { return c.eng }

// SetDurable routes every subsequent mutating node operation through d
// (typically a recovered durable.Store), which applies it to the engine
// and logs it. Install before serving traffic; a nil d restores direct
// engine calls.
func (c *Cluster) SetDurable(d Durability) { c.durable = d }

// ExportHandoff removes peer n's movable engine state from this process
// and returns it as a wire-codable message addressed to n. Multi-process
// deployments call it when a membership change moves n's ownership to
// another process: delivering the message there re-homes the state through
// the engine's idempotent merge path. ok is false when n held nothing.
func (c *Cluster) ExportHandoff(n *chord.Node) (msg chord.Message, ok bool) {
	return c.eng.ExportHandoff(n)
}

// OnNotify installs a callback invoked for every delivered notification. The
// notifications are the callback's: while one is installed the cluster counts
// them and keeps none (it remembers each match's identity, so that a retried
// or replayed delivery of it is suppressed). OnNotify(nil) removes the
// callback.
func (c *Cluster) OnNotify(fn func(Notification)) { c.eng.OnNotify(fn) }

// Notifications returns the notifications delivered while no OnNotify
// callback was installed to take them — all of them for a caller that polls
// and never installs one.
func (c *Cluster) Notifications() []Notification { return c.eng.Notifications() }

// NotificationCount returns how many notifications have been delivered so
// far, to a callback or not.
func (c *Cluster) NotificationCount() int { return c.eng.NotificationCount() }

// Traffic exposes the overlay-hop ledger for measurement.
func (c *Cluster) Traffic() *Traffic { return c.net.Traffic() }

// FilteringLoad summarizes the per-node filtering load (TF) distribution.
func (c *Cluster) FilteringLoad() Distribution {
	return metrics.SummarizeInt(c.eng.FilteringLoads())
}

// EvaluatorLoad summarizes the filtering-load distribution over evaluator
// nodes only — the population hot-key sharding rebalances. Its Max and
// Gini are what the daemon's stats op and the skewed bench cell report.
func (c *Cluster) EvaluatorLoad() Distribution {
	return metrics.SummarizeInt(c.eng.RoleLoads(metrics.Evaluator, false))
}

// HotKeys lists the value-level inputs promoted at this cluster's nodes, each
// promotion being its base node's own state, sorted by input; nil when none
// is, as when hot-key sharding is disabled.
func (c *Cluster) HotKeys() []HotKeyState { return c.eng.HotKeys() }

// StorageLoad summarizes the per-node storage load (TS) distribution.
func (c *Cluster) StorageLoad() Distribution {
	return metrics.SummarizeInt(c.eng.StorageLoads())
}

// EvictExpired applies the sliding window, dropping stored tuples that
// have fallen out of it.
func (c *Cluster) EvictExpired() { c.eng.EvictExpired() }

// Node is one peer of the cluster.
type Node struct {
	c *Cluster
	n *chord.Node
}

// Key returns the peer's unique key.
func (p *Node) Key() string { return p.n.Key() }

// Alive reports whether the peer is still part of the overlay.
func (p *Node) Alive() bool { return p.n.Alive() }

// Leave disconnects the peer voluntarily; its stored items (including
// notifications held for offline subscribers) move to its successor.
func (p *Node) Leave() { p.c.net.Leave(p.n) }

// Subscribe parses and indexes a continuous query posed by this peer. The
// returned query carries its unique key; notifications for it reference
// that key. A chain of more than two relations (joined along a chain of
// equalities) needs an algorithm that stores tuples at the value level
// (SAI or DAIQ).
func (p *Node) Subscribe(sql string) (*Query, error) {
	q, err := query.Parse(p.c.catalog, sql)
	if err != nil {
		return nil, err
	}
	if d := p.c.durable; d != nil {
		return d.Subscribe(p.n, q)
	}
	return p.c.eng.Subscribe(p.n, q)
}

// Unsubscribe retracts a continuous query previously returned by this
// peer's Subscribe: the query is removed from its rewriters and its stored
// rewrites, or a chain's partial matches at every pipeline stage, are purged
// from the evaluators, so future tuples no longer trigger it.
func (p *Node) Unsubscribe(q *Query) error {
	if d := p.c.durable; d != nil {
		return d.Unsubscribe(p.n, q)
	}
	return p.c.eng.Unsubscribe(p.n, q)
}

// Publish inserts a tuple given as Go values (string or numeric); see
// PublishTuple for pre-built tuples. The stamped tuple is returned.
func (p *Node) Publish(rel string, values ...interface{}) (*Tuple, error) {
	schema := p.c.catalog.Lookup(rel)
	if schema == nil {
		return nil, fmt.Errorf("cqjoin: unknown relation %s", rel)
	}
	vals := make([]Value, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case string:
			vals[i] = S(x)
		case float64:
			vals[i] = N(x)
		case float32:
			vals[i] = N(float64(x))
		case int:
			vals[i] = N(float64(x))
		case int32:
			vals[i] = N(float64(x))
		case int64:
			vals[i] = N(float64(x))
		case Value:
			vals[i] = x
		default:
			return nil, fmt.Errorf("cqjoin: unsupported value type %T for %s", v, rel)
		}
	}
	t, err := relation.StampedTuple(schema, vals, 0) // vals is the tuple's own: no copy
	if err != nil {
		return nil, err
	}
	return p.PublishTuple(t)
}

// PublishTuple inserts a pre-built tuple.
func (p *Node) PublishTuple(t *Tuple) (*Tuple, error) {
	if d := p.c.durable; d != nil {
		return d.Publish(p.n, t)
	}
	return p.c.eng.Publish(p.n, t)
}
