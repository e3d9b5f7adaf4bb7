package exp

import (
	"math/rand"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/metrics"
	"cqjoin/internal/workload"
)

// Scale sets the size of an experiment run. The CLI and the golden test
// default to CI(); joinsim's -scale paper is the thesis set-up (10^4-node
// network, 10^5 indexed queries, Section 4.5).
type Scale struct {
	Nodes   int
	Queries int
	Tuples  int
	Seed    int64
}

// CI returns a laptop-second scale preserving every experiment's shape.
func CI() Scale { return Scale{Nodes: 256, Queries: 400, Tuples: 400, Seed: 1} }

// Run is a live experiment: an overlay, an engine and a workload stream.
type Run struct {
	Net   *chord.Network
	Eng   *engine.Engine
	Gen   *workload.Generator
	Nodes []*chord.Node
	rng   *rand.Rand
}

// Setup builds an overlay of sc.Nodes peers running the given engine
// configuration over a fresh workload generator.
func Setup(cfg engine.Config, sc Scale, wp workload.Params) *Run {
	if wp.Seed == 0 {
		wp.Seed = sc.Seed
	}
	if cfg.Seed == 0 {
		cfg.Seed = sc.Seed
	}
	cfg.BlindIndexing = true // the paper's tables measure the paper's protocol (Section 4.2)
	gen := workload.New(wp)
	net := chord.New(chord.Config{})
	net.AddNodes("peer", sc.Nodes)
	eng := engine.New(net, gen.Catalog(), cfg)
	// The tables read NotificationCount only: a callback keeps the engine
	// from recording every notification it delivers.
	eng.OnNotify(func(engine.Notification) {})
	return &Run{
		Net:   net,
		Eng:   eng,
		Gen:   gen,
		Nodes: net.Nodes(),
		rng:   rand.New(rand.NewSource(sc.Seed + 7)),
	}
}

// randomNode picks a peer to act (pose a query, insert a tuple).
func (r *Run) randomNode() *chord.Node {
	return r.Nodes[r.rng.Intn(len(r.Nodes))]
}

// SubscribeT1 indexes n type-T1 queries from random peers.
func (r *Run) SubscribeT1(n int) {
	for i := 0; i < n; i++ {
		if _, err := r.Eng.Subscribe(r.randomNode(), r.Gen.Query()); err != nil {
			panic(err)
		}
	}
}

// SubscribeT2 indexes n type-T2 queries (DAI-V only).
func (r *Run) SubscribeT2(n int) {
	for i := 0; i < n; i++ {
		if _, err := r.Eng.Subscribe(r.randomNode(), r.Gen.QueryT2()); err != nil {
			panic(err)
		}
	}
}

// PublishTuples inserts n workload tuples from random peers, one after
// the other.
func (r *Run) PublishTuples(n int) {
	for i := 0; i < n; i++ {
		if _, err := r.Eng.Publish(r.randomNode(), r.Gen.Tuple()); err != nil {
			panic(err)
		}
	}
}

// PublishWindows inserts `batches` batches of `perBatch` tuples, applying
// window eviction between batches — the sliding-window regime of
// Figures 5.8/5.9. The logical clock ticks once per insertion, so a window
// of w keeps roughly the tuples of the last w insertions resident.
func (r *Run) PublishWindows(batches, perBatch int) {
	evict := r.Eng.Config().Window > 0
	for b := 0; b < batches; b++ {
		r.PublishTuples(perBatch)
		if evict {
			r.Eng.EvictExpired()
		}
	}
}

// ResetMeters zeroes the traffic ledger, the filtering loads and the
// delivered-notification record, marking the end of warm-up. The storage
// loads are what the nodes hold, and stay.
func (r *Run) ResetMeters() {
	r.Net.Traffic().Reset()
	r.Eng.ResetLoads()
	r.Eng.ResetNotifications()
}

// Measurements snapshots the metrics the figures report.
type Measurements struct {
	// HopsPerTuple is total overlay hops divided by inserted tuples — the
	// y-axis of the traffic figures.
	HopsPerTuple float64
	// MsgsPerTuple is total messages divided by inserted tuples.
	MsgsPerTuple float64
	// TF and TS summarize the per-node filtering and storage loads.
	TF, TS metrics.Distribution
	// Notifications is the number delivered since the last reset.
	Notifications int
}

// Measure collects the standard metric set after publishing `tuples`
// tuples since the last ResetMeters.
func (r *Run) Measure(tuples int) Measurements {
	m := Measurements{
		TF:            metrics.SummarizeInt(r.Eng.FilteringLoads()),
		TS:            metrics.SummarizeInt(r.Eng.StorageLoads()),
		Notifications: r.Eng.NotificationCount(),
	}
	if tuples > 0 {
		m.HopsPerTuple = float64(r.Net.Traffic().TotalHops()) / float64(tuples)
		m.MsgsPerTuple = float64(r.Net.Traffic().TotalMessages()) / float64(tuples)
	}
	return m
}

// mainAlgorithms are the four algorithms of Chapter 4 in presentation
// order.
func mainAlgorithms() []engine.Algorithm {
	return []engine.Algorithm{engine.SAI, engine.DAIQ, engine.DAIT, engine.DAIV}
}

// algCell is one cell of an algorithm × value grid.
type algCell struct {
	alg engine.Algorithm
	v   int
}

// algorithmGrid lists the four algorithms × vs in row order, leaving out a
// value that a small scale rounds to 0.
func algorithmGrid(vs ...int) []algCell {
	var cells []algCell
	for _, alg := range mainAlgorithms() {
		for _, v := range vs {
			if v != 0 {
				cells = append(cells, algCell{alg, v})
			}
		}
	}
	return cells
}
