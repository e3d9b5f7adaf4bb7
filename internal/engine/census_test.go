package engine

import (
	"testing"

	"cqjoin/internal/metrics"
	"cqjoin/internal/query"
	"cqjoin/internal/wire"
)

// The census reaches what the engine keeps beside its nodes' tables: the
// JFRT, the hot-key registry, the verdicts publishers hold, and the memo of
// the engine's WireCodec — empty until a message is decoded through it, then
// one query, its parsed text and no interned string for a query message.
func TestCensusCountsWhatTheEngineKeepsBesideItsTables(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI, UseJFRT: true, HotKeyThreshold: 4, HotKeyReplicas: 2, Seed: 7})
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	for i := 0; i < 8; i++ {
		env.publish(t, 3, rTuple(env, float64(i), 7, 0)) // one publisher: its second publication asks
		env.publish(t, 4+i, sTuple(env, float64(i), 7, 0))
	}
	c := env.eng.Census()
	for _, name := range []string{"jfrt_entries", "hot_counters", "hot_entries", "publisher_verdicts"} {
		if c[name].Sum == 0 || c[name].Max == 0 {
			t.Errorf("%s = %+v after a hot, joined stream from a repeat publisher", name, c[name])
		}
	}
	for _, name := range []string{"wire_memo_queries", "wire_memo_parsed", "wire_memo_strings"} {
		if c[name] != (CensusEntry{}) {
			t.Errorf("%s = %+v with nothing decoded", name, c[name])
		}
	}
	var w wire.Buffer
	if err := EncodeMessage(&w, queryMsg{Q: q, Side: query.SideLeft, Attr: "B"}); err != nil {
		t.Fatal(err)
	}
	if _, err := env.eng.WireCodec().Decode(wire.NewReader(w.Bytes())); err != nil {
		t.Fatal(err)
	}
	c = env.eng.Census()
	if got := [3]int{c["wire_memo_queries"].Sum, c["wire_memo_parsed"].Sum, c["wire_memo_strings"].Sum}; got != [3]int{1, 1, 0} {
		t.Errorf("after one query message the memo holds %v queries, texts and strings, want [1 1 0]", got)
	}
}

// DAI-V's value stores are what its evaluators hold: the census counts them
// as daiv_tuples, and they are the evaluator TS.
func TestCensusCountsDAIVValueStores(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: DAIV})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 1, rTuple(env, 1, 7, 0))
	env.publish(t, 2, sTuple(env, 2, 7, 0))
	if got := env.eng.Census()["daiv_tuples"].Sum; got != 2 {
		t.Errorf("daiv_tuples = %d after one tuple a side, want 2", got)
	}
	if got := sum(env.eng.RoleLoads(metrics.Evaluator, true)); got != 2 {
		t.Errorf("evaluator TS = %d after one tuple a side, want 2", got)
	}
}
