package engine

import (
	"sync"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// A publisher stops sending a tuple to a rewriter that told it nothing reads
// the attribute, until the rewriter takes that back (DESIGN.md §5). Each test
// below fails with the mechanism it names taken out.

// interceptFunc is a chord.Interceptor in one function.
type interceptFunc func(from, dst *chord.Node, msg chord.Message, forward func() bool) int

func (f interceptFunc) Deliver(from, dst *chord.Node, msg chord.Message, forward func() bool) int {
	return f(from, dst, msg, forward)
}

// alIndexSent publishes tu from node from and returns how many al-index
// messages that cost.
func alIndexSent(t *testing.T, env *testEnv, from int, tu *relation.Tuple, oracle *Oracle) int64 {
	t.Helper()
	before := env.net.Traffic().Messages(kindALIndex)
	oracle.AddTuple(env.publish(t, from, tu))
	return env.net.Traffic().Messages(kindALIndex) - before
}

// notAt returns the index of the first node from i on that is not n.
func notAt(env *testEnv, i int, n *chord.Node) int {
	for env.node(i) == n {
		i++
	}
	return i
}

// Whatever gives R.C a reader revokes the silence its rewriter granted before
// Subscribe returns: a query indexed there (SAI, both sides under DAI-Q, DAI-T
// and DAI-V, a chain's first stage) or a mark (SAI's other side, DAI-Q and
// DAI-T). A node publishes R three times — a walk, a hinted send that asks, a
// send that skips R.C, the one attribute no standing query reads — and once
// more after the subscribe, which must reach R.C and match.
func TestRevokedSilenceSendsAgain(t *testing.T) {
	const onC = `SELECT R.A, S.D FROM R, S WHERE R.C = S.F`
	for _, c := range []struct {
		name  string
		cfg   Config
		sql   string // a query that reads R.C
		chain bool
	}{
		{"SAI/indexed", Config{Algorithm: SAI, Strategy: StrategyLeft}, onC, false},
		{"SAI/marked", Config{Algorithm: SAI, Strategy: StrategyLeft}, `SELECT S.D, R.A FROM S, R WHERE S.F = R.C`, false},
		{"DAI-Q", Config{Algorithm: DAIQ}, onC, false},
		{"DAI-T", Config{Algorithm: DAIT}, onC, false},
		{"DAI-V", Config{Algorithm: DAIV}, onC, false},
		{"chain", Config{Algorithm: SAI, Strategy: StrategyLeft},
			`SELECT R.A, S.D, Authors.Name FROM R, S, Authors WHERE R.C = S.F AND S.D = Authors.Id`, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := newTestEnv(t, 32, c.cfg)
			oracle := NewOracle()
			oracle.AddQuery(env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.A = S.D`))
			oracle.AddQuery(env.subscribe(t, 0, `SELECT R.B, S.E FROM R, S WHERE R.B = S.E`))
			const publisher = 5
			for i, want := range []int64{3, 3, 2} {
				if sent := alIndexSent(t, env, publisher, rTuple(env, float64(i), float64(i), 4), oracle); sent != want {
					t.Fatalf("publication %d sent %d al-index messages, want %d", i+1, sent, want)
				}
			}
			chainKey := ""
			if c.chain {
				mq, err := env.eng.Subscribe(env.node(1), query.MustParse(env.catalog, c.sql))
				if err != nil {
					t.Fatal(err)
				}
				chainKey = mq.Key()
			} else {
				oracle.AddQuery(env.subscribe(t, 1, c.sql))
			}
			oracle.AddTuple(env.publish(t, 6, sTuple(env, 1, 9, 4)))
			env.publish(t, 7, relation.MustTuple(env.authors, relation.N(1), relation.N(2), relation.N(3)))
			if sent := alIndexSent(t, env, publisher, rTuple(env, 9, 9, 4), oracle); sent != 3 {
				t.Fatalf("after the subscribe the publisher sent %d al-index messages, want all 3", sent)
			}
			got, chained := map[string]bool{}, 0
			for _, n := range env.eng.Notifications() {
				if n.QueryKey == chainKey {
					chained++
					continue
				}
				got[n.ContentKey()] = true
			}
			want := oracle.ExpectedContentKeys()
			assertSetsEqual(t, c.cfg.Algorithm, want, got)
			if c.chain && chained != 1 || !c.chain && len(want) == 0 {
				t.Fatalf("%d chain matches and %d binary ones, want the one pair after the subscribe", chained, len(want))
			}
		})
	}
}

// The marked side is revoked before insT: a mark's handler revokes before its
// ack, and Subscribe draws insT once the marks are acked. A silenced S publisher
// publishes while the mark is held up — older than the query, that tuple may
// skip S.E — and again while the query is on its way, after insT, which must
// reach S.E and be forwarded.
func TestMarkedSideIsRevokedBeforeInsertionTime(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft, MaxRetries: 1})
	oracle := NewOracle()
	const publisher = 5
	for i, want := range []int64{3, 3, 0} { // no query reads S at all yet
		if sent := alIndexSent(t, env, publisher, sTuple(env, float64(10+i), 7, 0), oracle); sent != want {
			t.Fatalf("S publication %d sent %d al-index messages, want %d", i+1, sent, want)
		}
	}
	park := &parkKind{kind: kindInterest, armed: 1}
	park.onPark = func() { oracle.AddTuple(env.publish(t, publisher, sTuple(env, 1, 7, 0))) }
	queried := false
	env.net.SetInterceptor(interceptFunc(func(from, dst *chord.Node, msg chord.Message, forward func() bool) int {
		if msg.Kind() == kindQuery && !queried {
			queried = true
			oracle.AddTuple(env.publish(t, publisher, sTuple(env, 2, 7, 0)))
		}
		return park.Deliver(from, dst, msg, forward)
	}))
	oracle.AddQuery(env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`))
	park.release() // the held-up copy lands on the mark its retry set

	oracle.AddTuple(env.publish(t, 7, rTuple(env, 3, 7, 0)))
	want := oracle.ExpectedContentKeys()
	assertSetsEqual(t, SAI, want, gotContents(env))
	if len(want) != 1 || !queried {
		t.Fatalf("the oracle expects %d matches; want the one S tuple published while the query was on its way", len(want))
	}
}

// A revocation can land between an ask's handling and the publisher reading
// the answer: the ask's ack is held while a subscribe takes back the silence
// its handler granted. The answer is stale — the publisher discards it, every
// answer of that publication with it, and sends the attribute again. Then
// publishers and subscribers run at once, and every pair published after a
// Subscribe returned must match (run with -race).
func TestRevocationOvertakesTheReply(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft})
	oracle := NewOracle()
	const publisher = 5
	oracle.AddTuple(env.publish(t, publisher, sTuple(env, 0, 7, 0))) // the walk
	var q *query.Query
	env.net.SetInterceptor(interceptFunc(func(from, dst *chord.Node, msg chord.Message, forward func() bool) int {
		m, ok := msg.(*alAskMsg)
		if !ok || m.Attr != "E" || q != nil {
			return btoi(forward())
		}
		acked := forward()
		if m.Reply() != verdictSilent {
			t.Errorf("a rewriter nothing reads answered %d, want silent", m.Reply())
		}
		q = env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		return btoi(acked)
	}))
	oracle.AddTuple(env.publish(t, publisher, sTuple(env, 1, 7, 0))) // the ask
	env.net.SetInterceptor(nil)
	if q == nil {
		t.Fatal("the publisher never asked S.E's rewriter")
	}
	oracle.AddQuery(q)
	if sent := alIndexSent(t, env, publisher, sTuple(env, 2, 7, 0), oracle); sent != 3 {
		t.Fatalf("after a revocation overtook the answers the publisher sent %d al-index messages, want all 3", sent)
	}
	oracle.AddTuple(env.publish(t, 7, rTuple(env, 3, 7, 0)))
	assertSetsEqual(t, SAI, oracle.ExpectedContentKeys(), gotContents(env))
	if got := len(env.eng.Notifications()); got != 1 {
		t.Fatalf("%d notifications, want the one pair published after the subscribe", got)
	}

	concurrentSilenceAndSubscribe(t)
}

// concurrentSilenceAndSubscribe has four nodes publish R and S over and over,
// silencing the attributes no query reads, while another subscribes on each
// of those in turn. A pair of tuples both published after a Subscribe returned
// must match it; what else matched must be a match the oracle derives.
func concurrentSilenceAndSubscribe(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI, Seed: 7})
	all := NewOracle()
	all.AddQuery(env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.A = S.D`))
	sqls := []string{
		`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`,
		`SELECT R.A, S.D FROM R, S WHERE R.C = S.F`,
	}
	var mu sync.Mutex
	var live []*query.Query       // queries whose Subscribe has returned
	after := map[string]*Oracle{} // per query: the tuples published once it was live
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				tu := rTuple(env, float64(w*100+i), float64(i%3), float64(i%4))
				if i%2 == 1 {
					tu = sTuple(env, float64(w*100+i), float64(i%3), float64(i%4))
				}
				mu.Lock()
				before := append([]*query.Query(nil), live...)
				mu.Unlock()
				stamped, err := env.eng.Publish(env.node(10+w), tu)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				all.AddTuple(stamped)
				for _, q := range before {
					after[q.Key()].AddTuple(stamped)
				}
				mu.Unlock()
			}
		}(w)
	}
	for _, sql := range sqls {
		q, err := env.eng.Subscribe(env.node(1), query.MustParse(env.catalog, sql))
		if err != nil {
			t.Fatal(err)
		}
		mu.Lock()
		all.AddQuery(q)
		after[q.Key()] = NewOracle()
		after[q.Key()].AddQuery(q)
		live = append(live, q)
		mu.Unlock()
	}
	wg.Wait()
	got := map[string]bool{}
	for _, n := range env.eng.Notifications() {
		got[n.ContentKey()] = true
	}
	possible := all.ExpectedContentKeys()
	for k := range got {
		if !possible[k] {
			t.Errorf("delivered %s, which no published pair yields", k)
		}
	}
	for key, o := range after {
		for k := range o.ExpectedContentKeys() {
			if !got[k] {
				t.Errorf("query %s: a pair published after its Subscribe returned went undelivered: %s", key, k)
			}
		}
	}
}

// A grant is ALQT state: a join, a leave and a crash hand it to the arc's new
// owner, and a subscribe there takes it back.
func TestSilentGrantsMoveWithTheRewriter(t *testing.T) {
	for _, move := range []string{"join", "leave", "crash"} {
		t.Run(move, func(t *testing.T) {
			env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft})
			oracle := NewOracle()
			const input = "R+C"
			owner := env.net.OracleSuccessor(id.Hash(input))
			publisher := notAt(env, 5, owner)
			for i, want := range []int64{3, 3, 0} { // no query reads R yet
				if sent := alIndexSent(t, env, publisher, rTuple(env, float64(i), 0, 0), oracle); sent != want {
					t.Fatalf("publication %d sent %d al-index messages, want %d", i+1, sent, want)
				}
			}
			switch move {
			case "join":
				n, err := env.net.Join(keyTaking(t, env.net, input))
				if err != nil {
					t.Fatal(err)
				}
				env.eng.Attach(n)
			case "leave":
				env.net.Leave(owner)
				env.eng.Detach(owner)
			case "crash":
				env.eng.FailNode(owner)
			}
			heir := env.net.OracleSuccessor(id.Hash(input))
			st := env.eng.state(heir)
			st.mu.Lock()
			granted := st.alqt[input].granted(env.node(publisher).Key())
			st.mu.Unlock()
			if heir == owner || !granted {
				t.Fatalf("after the %s %s holds %s's grant: %v", move, heir, input, granted)
			}
			if sent := alIndexSent(t, env, publisher, rTuple(env, 3, 0, 0), oracle); sent != 0 {
				t.Fatalf("after the %s the publisher sent %d al-index messages, want none", move, sent)
			}
			oracle.AddQuery(env.subscribe(t, notAt(env, 0, heir), `SELECT R.A, S.D FROM R, S WHERE R.C = S.F`))
			oracle.AddTuple(env.publish(t, 6, sTuple(env, 1, 0, 4)))
			if sent := alIndexSent(t, env, publisher, rTuple(env, 4, 0, 4), oracle); sent != 1 {
				t.Fatalf("after a subscribe at the heir the publisher sent %d al-index messages, want R.C's", sent)
			}
			want := oracle.ExpectedContentKeys()
			assertSetsEqual(t, SAI, want, gotContents(env))
			if len(want) != 1 {
				t.Fatalf("the oracle expects %d matches, want 1", len(want))
			}
		})
	}
}
