package exp

import (
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/workload"
)

// table41 regenerates Table 4.1: a comparison of all algorithms. The first
// five columns state each protocol's defining choices; the measured columns
// run one canonical scenario and count the messages each protocol actually
// sent, making the step-sequence contrast of the thesis table observable:
//
//	phase 1: one query; eight R-tuples sharing one join value; one
//	         matching S-tuple.
//	phase 2: the same eight R-tuples inserted again (recurring values).
//
// SAI indexes the query under the left attribute (deterministically, so
// the row is reproducible); phase 2 exposes DAI-T's reindex-once rule —
// it alone sends no new join messages for recurring rewrites.
func table41(sc Scale) [][]string {
	static := map[engine.Algorithm][]string{
		engine.SAI:  {"1", "yes", "yes", "both arrivals", "no"},
		engine.DAIQ: {"2", "yes", "no", "rewrite arrival", "no"},
		engine.DAIT: {"2", "no", "yes", "tuple arrival", "no"},
		engine.DAIV: {"2", "yes (by value)", "no", "rewrite arrival", "yes"},
	}
	algs := mainAlgorithms()
	return fill(len(algs), func(ai int) []string {
		alg := algs[ai]
		r := Setup(engine.Config{Algorithm: alg, Strategy: engine.StrategyLeft},
			Scale{Nodes: 64, Seed: sc.Seed}, workload.Params{Pairs: 1, Attrs: 2})
		gen := r.Gen
		q := query.MustParse(gen.Catalog(), "SELECT R0.a0, S0.a0 FROM R0, S0 WHERE R0.a1 = S0.a1")
		if _, err := r.Eng.Subscribe(r.Nodes[0], q); err != nil {
			panic(err)
		}
		queryMsgs := r.Net.Traffic().Messages("query")
		r.Net.Traffic().Reset()

		publishR := func() {
			for i := 0; i < 8; i++ {
				tu := relation.MustTuple(gen.LeftSchema(0), relation.N(float64(i)), relation.N(7))
				if _, err := r.Eng.Publish(r.Nodes[1+i], tu); err != nil {
					panic(err)
				}
			}
		}
		publishR()
		su := relation.MustTuple(gen.RightSchema(0), relation.N(100), relation.N(7))
		if _, err := r.Eng.Publish(r.Nodes[20], su); err != nil {
			panic(err)
		}
		joinMsgs := r.Net.Traffic().Messages("join")

		r.Net.Traffic().Reset()
		publishR()
		repeatJoins := r.Net.Traffic().Messages("join")

		row := append([]string{alg.String()}, static[alg]...)
		return append(row, d(queryMsgs), d(joinMsgs), d(repeatJoins), d(r.Eng.NotificationCount()))
	})
}
