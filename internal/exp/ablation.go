package exp

import (
	"cqjoin/internal/engine"
	"cqjoin/internal/metrics"
	"cqjoin/internal/workload"
)

// x45 is the ablation for Section 4.5's keyed DAI-V extension
// (VIndex = Key(q) + valJC). The thesis reports that in a 10^4-node
// network with 10^5 indexed queries the keyed variant creates roughly 250x
// more traffic per inserted tuple, because rewritten queries can no longer
// be grouped; in exchange the load spreads over per-query evaluators. The
// table shows both effects and how the traffic factor grows with the
// number of indexed queries.
func x45(sc Scale) [][]string {
	var qs []int
	for _, q := range []int{sc.Queries / 4, sc.Queries, 2 * sc.Queries} {
		if q != 0 {
			qs = append(qs, q)
		}
	}
	return fill(len(qs), func(i int) []string {
		grouped, groupedUsed := keyedRun(sc, qs[i], false)
		keyed, keyedUsed := keyedRun(sc, qs[i], true)
		factor := 0.0
		if grouped > 0 {
			factor = keyed / grouped
		}
		return []string{d(qs[i]), f1(grouped), f1(keyed), f1(factor), d(groupedUsed), d(keyedUsed)}
	})
}

// keyedRun is one x45 run of q queries, keyed or grouped: it returns the
// join-message hops per tuple and the number of evaluators that filtered.
func keyedRun(sc Scale, q int, keyed bool) (joinHops float64, used int) {
	r := Setup(engine.Config{Algorithm: engine.DAIV, DAIVKeyed: keyed}, sc, workload.Params{Pairs: 1, Attrs: 2})
	r.SubscribeT1(q)
	r.ResetMeters()
	r.PublishTuples(sc.Tuples)
	// The thesis factor-of-250 claim is about reindexing traffic; count the
	// join-message hops alone so notification volume (which grows with
	// queries under both variants) cancels out.
	joinHops = float64(r.Net.Traffic().Hops("join")) / float64(sc.Tuples)
	return joinHops, metrics.SummarizeInt(r.Eng.RoleLoads(metrics.Evaluator, false)).NonZero
}
