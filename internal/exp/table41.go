package exp

import (
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/workload"
)

// Table41 regenerates Table 4.1: a comparison of all algorithms. The first
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
func Table41(sc Scale) *Table {
	t := &Table{
		ID:    "T4.1",
		Title: "A comparison of all algorithms",
		Note:  "static protocol properties + measured messages (phase 1: 8 R-tuples + 1 S-tuple; phase 2: same 8 R-tuples again)",
		Header: []string{"algorithm", "rewriters/query", "eval stores tuples", "eval stores rewrites",
			"notif created on", "T2 queries", "query msgs", "join msgs", "repeat join msgs", "notifications"},
	}
	static := map[engine.Algorithm][]string{
		engine.SAI:  {"1", "yes", "yes", "both arrivals", "no"},
		engine.DAIQ: {"2", "yes", "no", "rewrite arrival", "no"},
		engine.DAIT: {"2", "no", "yes", "tuple arrival", "no"},
		engine.DAIV: {"2", "yes (by value)", "no", "rewrite arrival", "yes"},
	}
	algs := mainAlgorithms()
	rows := make([][]string, len(algs))
	ForEach(len(algs), func(ai int) {
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
		row = append(row, d(queryMsgs), d(joinMsgs), d(repeatJoins),
			d(int64(r.Eng.NotificationCount())))
		rows[ai] = row
	})
	for _, row := range rows {
		t.AddRow(row...)
	}
	return t
}
