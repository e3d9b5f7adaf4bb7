package exp

import (
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/workload"
)

// X71 measures the multi-way chain extension (the future work of
// Chapter 7): traffic and load as the chain arity k grows under a fixed
// node count, query count and tuple budget. Longer chains cost more
// reindexing per completed combination — every matched stage is another
// value-level hop — while per-node load keeps spreading over the value
// space.
func X71(sc Scale) *Table {
	t := &Table{
		ID:     "X7.1",
		Title:  "Multi-way chain joins: traffic and load vs chain arity",
		Note:   "SAI pipeline generalization; expected shape: hops/tuple grows with k, completions need k matching stages",
		Header: []string{"k", "hops/tuple", "mjoin msgs", "TF gini", "TF used", "notifications"},
	}
	ks := []int{2, 3, 4}
	rows := make([][]string, len(ks))
	ForEach(len(ks), func(ki int) {
		k := ks[ki]
		r := chainSetup(sc)
		chainRun(r, sc, k)
		m := r.Measure(sc.Tuples)
		rows[ki] = []string{d(int64(k)), f1(m.HopsPerTuple),
			d(r.Net.Traffic().Messages("mjoin")),
			f3(m.TF.Gini), d(int64(m.TF.NonZero)), d(int64(m.Notifications))}
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t
}

// chainSetup is X7.1's overlay and workload. A moderately sparse value
// domain keeps the number of completed combinations from exploding
// combinatorially with k while still exercising every pipeline stage.
func chainSetup(sc Scale) *Run {
	return Setup(engine.Config{Algorithm: engine.SAI}, sc, workload.Params{Pairs: 2, Attrs: 2, Domain: 200, Theta: 0.5})
}

// chainRun is one X7.1 cell on r: sc.Queries/8 chain queries of arity k,
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
