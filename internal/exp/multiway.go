package exp

import (
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/workload"
)

// x71 measures the multi-way chain extension (the future work of
// Chapter 7): traffic and load as the chain arity k grows under a fixed
// node count, query count and tuple budget. Longer chains cost more
// reindexing per completed combination — every matched stage is another
// value-level hop — while per-node load keeps spreading over the value
// space.
func x71(sc Scale) [][]string {
	ks := []int{2, 3, 4}
	return fill(len(ks), func(i int) []string {
		r := chainSetup(sc)
		chainRun(r, sc, ks[i])
		m := r.Measure(sc.Tuples)
		return []string{d(ks[i]), f1(m.HopsPerTuple), d(r.Net.Traffic().Messages("mjoin")),
			f3(m.TF.Gini), d(m.TF.NonZero), d(m.Notifications)}
	})
}

// chainSetup is x71's overlay and workload. A moderately sparse value
// domain keeps the number of completed combinations from exploding
// combinatorially with k while still exercising every pipeline stage.
func chainSetup(sc Scale) *Run {
	return Setup(engine.Config{Algorithm: engine.SAI}, sc, workload.Params{Pairs: 2, Attrs: 2, Domain: 200, Theta: 0.5})
}

// chainRun is one x71 cell on r: sc.Queries/8 chain queries of arity k,
// then sc.Tuples chain tuples, meters reset in between. It returns the
// queries as indexed and the tuples as stamped, so a test can join the
// same stream by brute force.
func chainRun(r *Run, sc Scale, k int) ([]*query.Query, []*relation.Tuple) {
	queries := make([]*query.Query, max(sc.Queries/8, 1))
	for i := range queries {
		mq, err := r.Eng.Subscribe(r.randomNode(), r.Gen.QueryChain(k))
		if err != nil {
			panic(err)
		}
		queries[i] = mq
	}
	r.ResetMeters()
	tuples := make([]*relation.Tuple, sc.Tuples)
	for i := range tuples {
		tu, err := r.Eng.Publish(r.randomNode(), r.Gen.ChainTuple(k))
		if err != nil {
			panic(err)
		}
		tuples[i] = tu
	}
	return queries, tuples
}
