package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/metrics"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// multiEnv sets up a chain-join catalog A-B-C-D with small attribute
// domains so combinations actually complete.
type multiEnv struct {
	net        *chord.Network
	eng        *Engine
	catalog    *relation.Catalog
	a, b, c, d *relation.Schema
	nodes      []*chord.Node
}

func newMultiEnv(t testing.TB, nNodes int, cfg Config) *multiEnv {
	t.Helper()
	a := relation.MustSchema("A", "x", "y", "z")
	b := relation.MustSchema("B", "x", "y", "z")
	c := relation.MustSchema("C", "x", "y", "z")
	d := relation.MustSchema("D", "x", "y", "z")
	catalog := relation.MustCatalog(a, b, c, d)
	net := chord.New(chord.Config{})
	net.AddNodes("peer", nNodes)
	eng := New(net, catalog, cfg)
	return &multiEnv{net: net, eng: eng, catalog: catalog, a: a, b: b, c: c, d: d, nodes: net.Nodes()}
}

func (e *multiEnv) tuple(s *relation.Schema, x, y, z float64) *relation.Tuple {
	return relation.MustTuple(s, relation.N(x), relation.N(y), relation.N(z))
}

func (e *multiEnv) publish(t testing.TB, i int, tu *relation.Tuple) *relation.Tuple {
	t.Helper()
	out, err := e.eng.Publish(e.nodes[i%len(e.nodes)], tu)
	if err != nil {
		t.Fatalf("Publish: %v", err)
	}
	return out
}

func (e *multiEnv) subscribeChain(t testing.TB, i int, sql string) *query.Query {
	t.Helper()
	mq, err := e.eng.Subscribe(e.nodes[i%len(e.nodes)], query.MustParse(e.catalog, sql))
	if err != nil {
		t.Fatalf("Subscribe(%q): %v", sql, err)
	}
	return mq
}

func TestThreeWayJoinBasic(t *testing.T) {
	for _, alg := range []Algorithm{SAI, DAIQ} {
		t.Run(alg.String(), func(t *testing.T) {
			env := newMultiEnv(t, 48, Config{Algorithm: alg, Strategy: StrategyLeft})
			env.subscribeChain(t, 0, `SELECT A.z, B.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
			// A(x=1) joins B(y=1, x=2) joins C(y=2).
			env.publish(t, 1, env.tuple(env.a, 1, 0, 10))
			env.publish(t, 2, env.tuple(env.b, 2, 1, 20))
			env.publish(t, 3, env.tuple(env.c, 0, 2, 30))
			got := env.eng.Notifications()
			if len(got) != 1 {
				t.Fatalf("%d notifications, want 1: %v", len(got), got)
			}
			n := got[0]
			want := []float64{10, 20, 30}
			for i, w := range want {
				if !n.Values[i].Equal(relation.N(w)) {
					t.Fatalf("values = %v, want %v", n.Values, want)
				}
			}
		})
	}
}

// Tuples arriving in every possible order must produce the combination
// exactly once.
func TestThreeWayAllArrivalOrders(t *testing.T) {
	tuples := []struct {
		rel  byte
		x, z float64
	}{
		{'A', 1, 10}, {'B', 2, 20}, {'C', 0, 30},
	}
	perms := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	for _, perm := range perms {
		env := newMultiEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft})
		env.subscribeChain(t, 0, `SELECT A.z, B.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
		for _, idx := range perm {
			tu := tuples[idx]
			switch tu.rel {
			case 'A':
				env.publish(t, 1, env.tuple(env.a, tu.x, 0, tu.z))
			case 'B':
				env.publish(t, 2, env.tuple(env.b, tu.x, 1, tu.z))
			case 'C':
				env.publish(t, 3, env.tuple(env.c, tu.x, 2, tu.z))
			}
		}
		got := env.eng.Notifications()
		if len(got) != 1 {
			t.Fatalf("order %v: %d notifications, want 1", perm, len(got))
		}
	}
}

func TestMultiTimeSemantics(t *testing.T) {
	env := newMultiEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft})
	// One chain tuple inserted before the query: the combination must not
	// fire even though the other two arrive after.
	env.publish(t, 1, env.tuple(env.b, 2, 1, 20))
	env.subscribeChain(t, 0, `SELECT A.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
	env.publish(t, 2, env.tuple(env.a, 1, 0, 10))
	env.publish(t, 3, env.tuple(env.c, 0, 2, 30))
	if got := env.eng.Notifications(); len(got) != 0 {
		t.Fatalf("stale tuple completed a chain: %v", got)
	}
	// A fresh B makes it fire.
	env.publish(t, 4, env.tuple(env.b, 2, 1, 99))
	if got := env.eng.Notifications(); len(got) != 1 {
		t.Fatalf("%d notifications, want 1", len(got))
	}
}

func TestMultiSelectionPredicates(t *testing.T) {
	env := newMultiEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft})
	env.subscribeChain(t, 0, `
		SELECT A.z, C.z FROM A, B, C
		WHERE A.x = B.y AND B.x = C.y AND B.z >= 5 AND C.z = 30`)
	env.publish(t, 1, env.tuple(env.a, 1, 0, 10))
	env.publish(t, 2, env.tuple(env.b, 2, 1, 1))  // fails B.z >= 5
	env.publish(t, 3, env.tuple(env.c, 0, 2, 30)) // passes, but no valid B
	if got := env.eng.Notifications(); len(got) != 0 {
		t.Fatalf("filtered chain fired: %v", got)
	}
	env.publish(t, 4, env.tuple(env.b, 2, 1, 7)) // passes
	if got := env.eng.Notifications(); len(got) != 1 {
		t.Fatalf("%d notifications, want 1", len(got))
	}
}

func TestFourWayChain(t *testing.T) {
	env := newMultiEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyLeft})
	env.subscribeChain(t, 0, `
		SELECT A.z, D.z FROM A, B, C, D
		WHERE A.x = B.y AND B.x = C.y AND C.x = D.y`)
	env.publish(t, 1, env.tuple(env.d, 0, 3, 40))
	env.publish(t, 2, env.tuple(env.c, 3, 2, 30))
	env.publish(t, 3, env.tuple(env.a, 1, 0, 10))
	env.publish(t, 4, env.tuple(env.b, 2, 1, 20))
	got := env.eng.Notifications()
	if len(got) != 1 {
		t.Fatalf("%d notifications, want 1: %v", len(got), got)
	}
	if !got[0].Values[0].Equal(relation.N(10)) || !got[0].Values[1].Equal(relation.N(40)) {
		t.Fatalf("values = %v", got[0].Values)
	}
}

// A chain of more than two relations needs value-level tuple storage; two
// relations are a two-way query, which every algorithm evaluates.
func TestMultiRequiresTupleStorageRegime(t *testing.T) {
	for _, alg := range []Algorithm{DAIT, DAIV} {
		env := newMultiEnv(t, 16, Config{Algorithm: alg})
		mq := query.MustParse(env.catalog, `SELECT A.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
		if _, err := env.eng.Subscribe(env.nodes[0], mq); err == nil {
			t.Fatalf("%s accepted a multi-way query", alg)
		}
		if _, err := env.eng.Subscribe(env.nodes[0], query.MustParse(env.catalog, `SELECT A.z FROM A, B WHERE A.x = B.y`)); err != nil {
			t.Fatalf("%s refused a two-way query: %v", alg, err)
		}
	}
}

func TestMultiMinRateOrientation(t *testing.T) {
	env := newMultiEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyMinRate})
	// Stream A heavily; C stays quiet.
	for i := 0; i < 20; i++ {
		env.publish(t, i, env.tuple(env.a, float64(i), 0, 0))
	}
	env.publish(t, 30, env.tuple(env.c, 1, 1, 0))
	mq := env.subscribeChain(t, 0, `SELECT A.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
	// The quiet endpoint (C) must head the pipeline: the chain is indexed at
	// C.y, and walked from its right end.
	st := env.eng.state(env.net.OracleSuccessor(id.Hash("C+y")))
	st.mu.Lock()
	defer st.mu.Unlock()
	b := st.alqt["C+y"]
	if b == nil {
		t.Fatal("the chain is not indexed at C.y")
	}
	if g := condEntryOf(&b.byCond, mq.ConditionKey(), nil); g == nil || g.side != query.SideRight || len(g.queries) != 1 {
		t.Fatalf("C.y's group of the chain is %+v, want it walked from the right", g)
	}
}

// Brute-force oracle for random 3-way workloads: every satisfying
// combination fires once, also when several project to the same values
// (the second query selects the end relations only).
func TestMultiOracle(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		env := newMultiEnv(t, 48, Config{Algorithm: SAI, Seed: seed})
		rng := rand.New(rand.NewSource(seed * 11))
		mqs := []*query.Query{
			env.subscribeChain(t, 0, `SELECT A.z, B.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`),
			env.subscribeChain(t, 1, `SELECT A.z, C.z FROM A, B, C WHERE A.y = B.y AND B.x = C.x AND C.z >= 1`),
		}
		var as, bs, cs []*relation.Tuple
		schemas := []*relation.Schema{env.a, env.b, env.c}
		sinks := []*[]*relation.Tuple{&as, &bs, &cs}
		for i := 0; i < 90; i++ {
			k := rng.Intn(3)
			tu := env.publish(t, rng.Intn(48), env.tuple(schemas[k],
				float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(3))))
			*sinks[k] = append(*sinks[k], tu)
		}

		want := make(map[string]int)
		for _, mq := range mqs {
			chainMatches(t, want, mq, map[string][]*relation.Tuple{"A": as, "B": bs, "C": cs})
		}
		got := make(map[string]int)
		for _, n := range env.eng.Notifications() {
			got[n.ContentKey()]++
		}
		if len(want) == 0 {
			t.Fatalf("seed %d: oracle empty, test vacuous", seed)
		}
		for k, n := range want {
			if got[k] != n {
				t.Fatalf("seed %d: %s delivered %d times, %d combinations satisfy it", seed, k, got[k], n)
			}
		}
		for k := range got {
			if want[k] == 0 {
				t.Fatalf("seed %d: extra %s", seed, k)
			}
		}
	}
}

// chainMatches adds to want, by content key, every combination of the tuples
// in pools (by relation) that satisfies 3-way chain mq.
func chainMatches(t testing.TB, want map[string]int, mq *query.Query, pools map[string][]*relation.Tuple) {
	t.Helper()
	links := mq.Links()
	rels := mq.Rels()
	for _, t0 := range pools[rels[0].Name()] {
		for _, t1 := range pools[rels[1].Name()] {
			for _, t2 := range pools[rels[2].Name()] {
				combo := []*relation.Tuple{t0, t1, t2}
				valid := true
				for _, tt := range combo {
					if tt.PubT() < mq.InsT() {
						valid = false
						break
					}
					if ok, err := mq.FiltersPass(tt); err != nil || !ok {
						valid = false
						break
					}
				}
				if !valid {
					continue
				}
				for li, l := range links {
					lv, err1 := l.L.Eval(combo[li])
					rv, err2 := l.R.Eval(combo[li+1])
					if err1 != nil || err2 != nil || !lv.Equal(rv) {
						valid = false
						break
					}
				}
				if !valid {
					continue
				}
				vals, err := mq.ProjectNotification(combo...)
				if err != nil {
					t.Fatalf("oracle projection: %v", err)
				}
				key := mq.Key()
				for _, v := range vals {
					key += "|" + v.Canon()
				}
				want[key]++
			}
		}
	}
}

// A chain's partial matches are stored rewrites, which the census counts,
// and leave with the window; a two-way rewrite never expires.
func TestMultiWindowEviction(t *testing.T) {
	env := newMultiEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft, Window: 5})
	env.subscribeChain(t, 0, `SELECT A.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
	env.subscribeChain(t, 1, `SELECT A.z, D.z FROM A, D WHERE A.y = D.y`)
	rewrites := func() int { return env.eng.Census()["vlqt_rewrites"].Sum }
	env.publish(t, 1, env.tuple(env.a, 1, 0, 10)) // the chain's A and the two-way query's rewrite
	env.publish(t, 2, env.tuple(env.b, 2, 1, 20)) // partial match A⋈B now stored
	if got := rewrites(); got != 3 {
		t.Fatalf("the census counts %d stored rewrites, want the chain's two partial matches and the two-way one", got)
	}
	before := sum(env.eng.StorageLoads())
	env.net.Clock().Advance(50)
	env.eng.EvictExpired()
	after := sum(env.eng.StorageLoads())
	if after >= before {
		t.Fatalf("eviction did not drop partial matches: %d -> %d", before, after)
	}
	if got := rewrites(); got != 1 {
		t.Fatalf("after the window the census counts %d stored rewrites, want the two-way one", got)
	}
	// The expired partial match must not complete.
	env.publish(t, 3, env.tuple(env.c, 0, 2, 30))
	if got := env.eng.Notifications(); len(got) != 0 {
		t.Fatalf("expired chain completed: %v", got)
	}
}

func TestMultiGroupingSharesMessages(t *testing.T) {
	env := newMultiEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft})
	for i := 0; i < 4; i++ {
		env.subscribeChain(t, i, `SELECT A.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
	}
	env.net.Traffic().Reset()
	env.publish(t, 9, env.tuple(env.a, 1, 0, 10))
	// One tuple triggers all four chain queries toward one evaluator: one
	// mjoin message.
	if got := env.net.Traffic().Messages("mjoin"); got != 1 {
		t.Fatalf("mjoin messages = %d, want 1", got)
	}
}

func TestMultiSurvivesChurn(t *testing.T) {
	env := newMultiEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft})
	env.subscribeChain(t, 0, `SELECT A.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
	env.publish(t, 1, env.tuple(env.a, 1, 0, 10))
	env.publish(t, 2, env.tuple(env.b, 2, 1, 20))
	// Voluntary churn between stages: state hands over cleanly.
	for i := 0; i < 5; i++ {
		n, err := env.net.Join(fmt.Sprintf("late-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		env.eng.Attach(n)
	}
	nodes := env.net.Nodes()
	env.net.Leave(nodes[7])
	env.net.Leave(nodes[13])
	env.publish(t, 3, env.tuple(env.c, 0, 2, 30))
	if got := env.eng.Notifications(); len(got) != 1 {
		t.Fatalf("%d notifications after churn, want 1", len(got))
	}
}

func TestMultiLoadAccounting(t *testing.T) {
	env := newMultiEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft})
	env.subscribeChain(t, 0, `SELECT A.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
	env.publish(t, 1, env.tuple(env.a, 1, 0, 10))
	if got := sum(env.eng.RoleLoads(metrics.Rewriter, true)); got != 1 {
		t.Fatalf("rewriter storage = %d, want 1 (the chain query)", got)
	}
	if got := sum(env.eng.RoleLoads(metrics.Evaluator, true)); got == 0 {
		t.Fatal("no evaluator storage for the partial match")
	}
}

// A chain's query and one stage's join, each delivered twice, count once: the
// rewriter stores the chain once, the evaluator the partial match once, and
// the next stage sends one join. Each run is held to the same stream without
// the duplicates.
func TestDuplicatedChainDeliveriesCountOnce(t *testing.T) {
	const sql = `SELECT A.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`
	run := func(dup bool) (queries, rewrites int, stage2 int64, notifs int) {
		env := newMultiEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft})
		duplicate := func(kind string) {
			if dup {
				env.net.SetInterceptor(&parkKind{kind: kind, duplicate: true})
			}
		}
		duplicate(kindQuery)
		env.subscribeChain(t, 0, sql)
		duplicate(kindMJoin) // the first stage's join, to B.y = 1
		env.publish(t, 1, env.tuple(env.a, 1, 0, 10))
		env.net.SetInterceptor(nil)
		census := env.eng.Census()
		queries, rewrites = census["alqt_queries"].Sum, census["vlqt_rewrites"].Sum
		joins := env.net.Traffic().Messages(kindMJoin)
		env.publish(t, 2, env.tuple(env.b, 2, 1, 20))
		stage2 = env.net.Traffic().Messages(kindMJoin) - joins
		env.publish(t, 3, env.tuple(env.c, 0, 2, 30))
		return queries, rewrites, stage2, len(env.eng.Notifications())
	}
	wantQ, wantRW, wantJoins, wantN := run(false)
	if wantQ != 1 || wantJoins != 1 || wantN != 1 {
		t.Fatalf("without duplicates: %d stored queries, %d second-stage joins, %d notifications; want 1 each", wantQ, wantJoins, wantN)
	}
	gotQ, gotRW, gotJoins, gotN := run(true)
	if gotQ != wantQ || gotRW != wantRW || gotJoins != wantJoins || gotN != wantN {
		t.Fatalf("duplicated deliveries left %d stored queries, %d stored rewrites, %d second-stage joins and %d notifications; want %d, %d, %d and %d",
			gotQ, gotRW, gotJoins, gotN, wantQ, wantRW, wantJoins, wantN)
	}
}
