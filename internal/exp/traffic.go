package exp

import (
	"fmt"

	"cqjoin/internal/engine"
	"cqjoin/internal/workload"
)

// fig52 regenerates Figure 5.2: network traffic per inserted tuple for all
// four algorithms, with and without the Join Fingers Routing Table. The
// JFRT removes the O(log N) lookup from repeat reindexing, so the hops per
// tuple drop by roughly the routing factor once recurring join values warm
// the cache. Each algorithm has two rows, JFRT off and then on.
func fig52(sc Scale) [][]string {
	algs := mainAlgorithms()
	return fill(2*len(algs), func(i int) []string {
		alg, jfrt := algs[i/2], i%2 == 1
		// A moderate value domain makes join values recur — the regime
		// the JFRT targets (recurring rewrites to the same evaluator).
		r := Setup(engine.Config{Algorithm: alg, UseJFRT: jfrt}, sc, workload.Params{Domain: 100})
		r.SubscribeT1(sc.Queries)
		// Warm up so the JFRT effect is measured in steady state: the
		// cache fills during the first half of the stream.
		r.PublishTuples(sc.Tuples / 2)
		r.ResetMeters()
		r.PublishTuples(sc.Tuples)
		m := r.Measure(sc.Tuples)
		return []string{alg.String(), fmt.Sprintf("%v", jfrt),
			f1(m.HopsPerTuple), f1(m.MsgsPerTuple),
			d(r.Net.Traffic().Hops("join")), d(m.Notifications)}
	})
}

// fig53 regenerates Figure 5.3: the effect of the number of indexed queries
// on network traffic. More installed queries mean more triggered groups per
// tuple and so more rewritten-query traffic; DAI-T flattens because stored
// rewritten queries are never reindexed twice.
func fig53(sc Scale) [][]string {
	cells := algorithmGrid(sc.Queries/8, sc.Queries/2, sc.Queries, 2*sc.Queries)
	return fill(len(cells), func(i int) []string {
		c := cells[i]
		r := Setup(engine.Config{Algorithm: c.alg}, sc, workload.Params{})
		r.SubscribeT1(c.v)
		// Warm up so DAI-T's reindex-once effect shows in steady state.
		r.PublishTuples(sc.Tuples / 2)
		r.ResetMeters()
		r.PublishTuples(sc.Tuples)
		m := r.Measure(sc.Tuples)
		joinMsgs := float64(r.Net.Traffic().Messages("join")) / float64(sc.Tuples)
		return []string{c.alg.String(), d(c.v), f1(m.HopsPerTuple), f2(joinMsgs)}
	})
}

// fig54 regenerates Figure 5.4: comparison of the index attribute selection
// strategies in SAI. Streams are asymmetric (bos ratio 4): the min-rate
// strategy indexes queries under the quiet relation, so far fewer tuple
// insertions trigger rewriting than under the random choice.
func fig54(sc Scale) [][]string {
	strats := []engine.Strategy{engine.StrategyRandom, engine.StrategyMinRate, engine.StrategyMinDomain, engine.StrategyLeft}
	return fill(len(strats), func(i int) []string {
		r, m := strategyRun(sc, strats[i], 4)
		joinMsgs := float64(r.Net.Traffic().Messages("join")) / float64(sc.Tuples)
		return []string{strats[i].String(), f1(m.HopsPerTuple), f2(joinMsgs), d(m.TF.NonZero)}
	})
}

// fig55 regenerates Figure 5.5: the effect of the bos ratio — the rate
// imbalance between the two joined streams — on SAI's traffic, for the
// min-rate strategy against the random baseline. As the imbalance grows,
// min-rate's advantage grows: it parks queries on the quiet side.
func fig55(sc Scale) [][]string {
	bosValues := []float64{1, 2, 4, 8, 16}
	return fill(len(bosValues), func(i int) []string {
		bos := bosValues[i]
		_, random := strategyRun(sc, engine.StrategyRandom, bos)
		_, minRate := strategyRun(sc, engine.StrategyMinRate, bos)
		saving := 0.0
		if random.HopsPerTuple > 0 {
			saving = 1 - minRate.HopsPerTuple/random.HopsPerTuple
		}
		return []string{f1(bos), f1(random.HopsPerTuple), f1(minRate.HopsPerTuple), fmt.Sprintf("%.0f%%", 100*saving)}
	})
}

// strategyRun is one SAI run of Figures 5.4 and 5.5, indexing under strat
// with the left stream bos times as hot as the right.
func strategyRun(sc Scale, strat engine.Strategy, bos float64) (*Run, Measurements) {
	r := Setup(engine.Config{Algorithm: engine.SAI, Strategy: strat}, sc, workload.Params{BosRatio: bos})
	// Arrival statistics must exist before the strategies can probe
	// them (Section 4.3.6): warm up with tuples first.
	r.PublishTuples(sc.Tuples / 2)
	r.SubscribeT1(sc.Queries)
	r.ResetMeters()
	r.PublishTuples(sc.Tuples)
	return r, r.Measure(sc.Tuples)
}
