package exp

import (
	"cqjoin/internal/engine"
	"cqjoin/internal/metrics"
	"cqjoin/internal/workload"
)

// distCells renders the distribution columns shared by the load figures.
func distCells(dist metrics.Distribution) []string {
	return []string{
		d(dist.NonZero), f1(dist.Mean), f1(dist.Max), f3(dist.Gini), f2(dist.Top1Share),
	}
}

var distHeader = []string{"nodes used", "mean", "max", "gini", "top1% share"}

// roleTotal sums the filtering (or, with storage, the storage) load the
// nodes of one role carry.
func roleTotal(r *Run, role metrics.Role, storage bool) int64 {
	var total int64
	for _, l := range r.Eng.RoleLoads(role, storage) {
		total += l
	}
	return total
}

// fig56 regenerates Figure 5.6: the effect of the attribute-level
// replication scheme on the filtering-load distribution. Replicating the
// rewriter role over k nodes splits each hot attribute's triggering work k
// ways, lowering the maximum and the skew.
func fig56(sc Scale) [][]string {
	ks := []int{1, 2, 4, 8}
	return fill(len(ks), func(i int) []string {
		dist := metrics.SummarizeInt(replicationRun(sc, ks[i]).Eng.RoleLoads(metrics.Rewriter, false))
		return append([]string{d(ks[i])}, distCells(dist)...)
	})
}

// fig57 regenerates Figure 5.7: the replication scheme's effect on the
// storage-load distribution. Queries are stored at all k replicas, so
// total rewriter storage grows k-fold while spreading across k-times as
// many nodes.
func fig57(sc Scale) [][]string {
	ks := []int{1, 2, 4, 8}
	return fill(len(ks), func(i int) []string {
		dist := metrics.SummarizeInt(replicationRun(sc, ks[i]).Eng.RoleLoads(metrics.Rewriter, true))
		return append([]string{d(ks[i]), f1(dist.Total)}, distCells(dist)...)
	})
}

func replicationRun(sc Scale, k int) *Run {
	// A narrow schema (one pair, two attributes) keeps the number of
	// rewriter identifiers far below the node count, the regime replication
	// targets: few hot attribute-level nodes in a large network.
	r := Setup(engine.Config{Algorithm: engine.SAI, ReplicationFactor: k}, sc, workload.Params{Pairs: 1, Attrs: 2})
	r.SubscribeT1(sc.Queries)
	r.PublishTuples(sc.Tuples)
	return r
}

// fig58 regenerates Figure 5.8: the effect of window size and installed
// queries on the total evaluator filtering load. A longer window keeps more
// tuples resident, so every rewritten query scans more candidates; more
// queries trigger more rewrites.
func fig58(sc Scale) [][]string { return windowSweep(sc, false) }

// fig59 regenerates Figure 5.9: window size and installed queries against
// total evaluator storage load. Stored tuples are bounded by the window;
// stored rewritten queries grow with the query count.
func fig59(sc Scale) [][]string { return windowSweep(sc, true) }

// windowSweep runs the window × queries grid shared by Figures 5.8/5.9 and
// reports each cell's total evaluator filtering (or, with storage, storage)
// load. The clock ticks once per insertion, so a window of w keeps roughly
// the last w insertions' tuples resident.
func windowSweep(sc Scale, storage bool) [][]string {
	batches := 8
	perWindow := max(sc.Tuples/batches, 1)
	type cell struct {
		window  int64
		queries int
	}
	var cells []cell
	for _, window := range []int64{int64(perWindow), int64(4 * perWindow)} {
		for _, queries := range []int{sc.Queries / 4, sc.Queries} {
			if queries != 0 {
				cells = append(cells, cell{window, queries})
			}
		}
	}
	return fill(len(cells), func(i int) []string {
		c := cells[i]
		r := Setup(engine.Config{Algorithm: engine.SAI, Window: c.window}, sc, workload.Params{})
		r.SubscribeT1(c.queries)
		r.ResetMeters()
		r.PublishWindows(batches, perWindow)
		return []string{d(c.window), d(c.queries), d(roleTotal(r, metrics.Evaluator, storage))}
	})
}

// fig510 regenerates Figure 5.10: the TF and TS load-distribution
// comparison for all four algorithms on the same workload.
func fig510(sc Scale) [][]string {
	algs := mainAlgorithms()
	return fill(len(algs), func(i int) []string {
		_, m := standardRun(sc, algs[i])
		return []string{algs[i].String(),
			d(m.TF.NonZero), f1(m.TF.Max), f3(m.TF.Gini),
			d(m.TS.NonZero), f1(m.TS.Max), f3(m.TS.Gini)}
	})
}

// fig511 regenerates Figure 5.11: total filtering and storage load split
// between the two indexing levels (rewriters vs evaluators) for the
// two-level algorithms.
func fig511(sc Scale) [][]string {
	algs := mainAlgorithms()
	return fill(len(algs), func(i int) []string {
		r, _ := standardRun(sc, algs[i])
		return []string{algs[i].String(),
			d(roleTotal(r, metrics.Rewriter, false)), d(roleTotal(r, metrics.Evaluator, false)),
			d(roleTotal(r, metrics.Rewriter, true)), d(roleTotal(r, metrics.Evaluator, true))}
	})
}

// standardRun is the recipe most load figures share: sc.Nodes peers running
// alg, sc.Queries T1 queries, meters reset, then sc.Tuples tuples, measured.
// A figure sweeps a dimension by passing it in through sc.
func standardRun(sc Scale, alg engine.Algorithm) (*Run, Measurements) {
	r := Setup(engine.Config{Algorithm: alg}, sc, workload.Params{})
	r.SubscribeT1(sc.Queries)
	r.ResetMeters()
	r.PublishTuples(sc.Tuples)
	return r, r.Measure(sc.Tuples)
}

// scaling is the algorithm × value grid of Figures 5.12–5.15: one
// standardRun a cell, set writing the cell's value into its copy of sc, and
// the cell's row made by row.
func scaling(sc Scale, set func(*Scale, int), vs []int, row func(algCell, Measurements) []string) [][]string {
	cells := algorithmGrid(vs...)
	return fill(len(cells), func(i int) []string {
		sz := sc
		set(&sz, cells[i].v)
		_, m := standardRun(sz, cells[i].alg)
		return row(cells[i], m)
	})
}

// tfRow is a scaling row: the cell's algorithm and value, then its
// filtering-load distribution.
func tfRow(c algCell, m Measurements) []string {
	return append([]string{c.alg.String(), d(c.v)}, distCells(m.TF)...)
}

// fig512 regenerates Figure 5.12: the filtering-load distribution as the
// frequency of incoming tuples grows. Load totals scale with the stream
// rate while the distribution shape stays stable — the scalability claim of
// Chapter 1.
func fig512(sc Scale) [][]string {
	return scaling(sc, func(s *Scale, v int) { s.Tuples = v }, []int{sc.Tuples / 4, sc.Tuples, 2 * sc.Tuples}, tfRow)
}

// fig513 regenerates Figure 5.13: the filtering-load distribution as the
// number of indexed queries grows.
func fig513(sc Scale) [][]string {
	return scaling(sc, func(s *Scale, v int) { s.Queries = v }, []int{sc.Queries / 4, sc.Queries, 2 * sc.Queries}, tfRow)
}

// fig514 regenerates Figure 5.14: the filtering-load distribution as the
// network grows under a fixed workload. New nodes take over identifier
// arcs and relieve existing rewriters and evaluators.
func fig514(sc Scale) [][]string { return networkSweep(sc, tfRow) }

// fig515 regenerates Figure 5.15: the same network-size sweep restricted to
// the most loaded nodes — the share of total filtering work carried by the
// top 1% and 10%.
func fig515(sc Scale) [][]string {
	return networkSweep(sc, func(c algCell, m Measurements) []string {
		return []string{c.alg.String(), d(c.v), f1(m.TF.Max), f2(m.TF.Top1Share), f2(m.TF.Top10Share)}
	})
}

// networkSweep is the algorithm × network-size grid of Figures 5.14/5.15.
func networkSweep(sc Scale, row func(algCell, Measurements) []string) [][]string {
	return scaling(sc, func(s *Scale, v int) { s.Nodes = v }, []int{sc.Nodes / 4, sc.Nodes, 4 * sc.Nodes}, row)
}

// fig516 regenerates Figure 5.16: DAI-V's filtering-load distribution under
// each of the three growth dimensions — network size, queries and tuples —
// exercised with type-T2 queries, the workload only DAI-V supports.
func fig516(sc Scale) [][]string {
	type cell struct {
		sweep string
		value int
		sc    Scale
	}
	var cells []cell
	for _, n := range []int{sc.Nodes / 4, sc.Nodes, 4 * sc.Nodes} {
		cells = append(cells, cell{"network", n, Scale{n, sc.Queries, sc.Tuples, sc.Seed}})
	}
	for _, q := range []int{sc.Queries / 4, sc.Queries, 2 * sc.Queries} {
		cells = append(cells, cell{"queries", q, Scale{sc.Nodes, q, sc.Tuples, sc.Seed}})
	}
	for _, tu := range []int{sc.Tuples / 4, sc.Tuples, 2 * sc.Tuples} {
		cells = append(cells, cell{"tuples", tu, Scale{sc.Nodes, sc.Queries, tu, sc.Seed}})
	}
	return fill(len(cells), func(i int) []string {
		c := cells[i]
		r := Setup(engine.Config{Algorithm: engine.DAIV}, c.sc, workload.Params{})
		r.SubscribeT2(c.sc.Queries)
		r.ResetMeters()
		r.PublishTuples(c.sc.Tuples)
		return append([]string{c.sweep, d(c.value)}, distCells(r.Measure(c.sc.Tuples).TF)...)
	})
}
