package engine

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// A subscribe sends interest marks, the revocations its marks and its query
// cause, and its query (Section 4.3.1). The matrix parks each of those messages
// in turn: while it is on its way a matching set of tuples is published, then
// the message is released, the subscribe returns and a second matching set is
// published. What the engine delivered is held to the oracle — engine.Oracle,
// a brute force for the 3-way chain — under SAI, DAI-Q, DAI-T, DAI-V, a 3-way
// chain and a promoted hot key. A cell that misses a match is a loss.
//
// subscribeLosses is every cell that loses a match today, by name: the set of
// losing cells must be exactly it, so a fix fails this test until it takes
// its cells off the list, and a new loss fails it at once. All follow from
// insT being drawn before the query is sent: a tuple that reaches
// the query's rewriter before the query triggers nothing, and no later tuple
// finds it; nor does one whose publisher still holds the rewriter silent
// because the revocation the query caused — a revocation a mark caused comes
// before insT — has not reached it yet.
var subscribeLosses = []string{
	"DAI-Q/query#0",
	"DAI-Q/query#1",
	"DAI-T/query#0",
	"DAI-V/query#0",
	"DAI-V/query#1",
	"DAI-V/revoke#0",
	"DAI-V/revoke#1",
	"SAI/query#0",
	"SAI/revoke#1",
	"chain/query#0",
	"chain/revoke#2",
	"hot key/query#0",
}

// raceRun is one configuration's engine, warmed up, and what a cell does to it.
type raceRun struct {
	net       *chord.Network
	subscribe func()      // the subscription under test
	meanwhile func()      // a matching set, published while a message is parked
	after     func()      // another, once the subscribe returned
	missing   func() bool // whether a match the oracle derives was not delivered; an extra one fails t
}

// subscribeMessage names the kind of a message a subscribe sends, "" for any
// other.
func subscribeMessage(msg chord.Message) string {
	switch msg.(type) {
	case interestMsg:
		return "mark"
	case revokeMsg:
		return "revoke"
	case queryMsg:
		return "query"
	}
	return ""
}

func TestSubscribeRaceMatrix(t *testing.T) {
	configs := []struct {
		name  string
		start func(t *testing.T) *raceRun
	}{
		{"SAI", twoWayRace(Config{Algorithm: SAI, Strategy: StrategyLeft}, nil)},
		{"DAI-Q", twoWayRace(Config{Algorithm: DAIQ}, nil)},
		{"DAI-T", twoWayRace(Config{Algorithm: DAIT}, nil)},
		{"DAI-V", twoWayRace(Config{Algorithm: DAIV}, nil)},
		{"chain", chainRace},
		{"hot key", twoWayRace(Config{Algorithm: SAI, Strategy: StrategyLeft, HotKeyThreshold: 4, HotKeyReplicas: 2},
			func(t *testing.T, env *testEnv, o *Oracle, pub func(int, *relation.Tuple)) {
				o.AddQuery(env.subscribe(t, 1, `SELECT R.C, S.F FROM R, S WHERE R.B = S.E`))
				for i := 0; i < 8; i++ {
					pub(10+i, sTuple(env, float64(50+i), 7, 0))
					pub(20+i, rTuple(env, float64(50+i), 7, 0))
				}
				if len(env.eng.HotKeys()) == 0 {
					t.Fatal("the warm-up promoted no key")
				}
			})},
	}
	var losses []string
	for _, cfg := range configs {
		// A dry run parks nothing: it lists the messages, and loses nothing.
		sent, missing := runRaceCell(t, cfg.start, "", 0)
		if missing {
			t.Fatalf("%s: a subscribe with nothing parked lost a match", cfg.name)
		}
		kinds := make([]string, 0, len(sent))
		for kind := range sent {
			kinds = append(kinds, kind)
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			for k := 0; k < sent[kind]; k++ {
				if _, missing := runRaceCell(t, cfg.start, kind, k); missing {
					losses = append(losses, fmt.Sprintf("%s/%s#%d", cfg.name, kind, k))
				}
			}
		}
		t.Logf("%s: a subscribe sends %v", cfg.name, sent)
		if sent["query"] == 0 || sent["mark"] == 0 && cfg.name != "DAI-V" {
			t.Errorf("%s: a subscribe sent %v", cfg.name, sent)
		}
	}
	sort.Strings(losses)
	if !slices.Equal(losses, subscribeLosses) {
		t.Fatalf("the cells that lose a match are\n%q\nthe known losses\n%q", losses, subscribeLosses)
	}
}

// runRaceCell runs one cell: the k-th message of kind park that the subscribe
// sends is delivered only after the meanwhile set is published ("" parks
// nothing). It returns how many messages of each kind the subscribe sent, and
// whether a match was lost.
func runRaceCell(t *testing.T, start func(t *testing.T) *raceRun, park string, k int) (map[string]int, bool) {
	t.Helper()
	run := start(t)
	sent := map[string]int{}
	publishing := false
	run.net.SetInterceptor(interceptFunc(func(from, dst *chord.Node, msg chord.Message, forward func() bool) int {
		if kind := subscribeMessage(msg); kind != "" && !publishing {
			if kind == park && sent[kind] == k {
				publishing = true
				run.meanwhile()
				publishing = false
			}
			sent[kind]++
		}
		return btoi(forward())
	}))
	run.subscribe()
	run.net.SetInterceptor(nil)
	if park == "" {
		run.meanwhile()
	}
	run.after()
	return sent, run.missing()
}

// twoWayRace returns a configuration of R(A,B,C) ⋈ S(D,E,F) on R.B = S.E.
// Two repeat publishers, one a relation, have asked every rewriter, and hold
// it silent where nothing reads its attribute; warm, if set, runs after them.
// Each set is one R and one S tuple from those publishers.
func twoWayRace(cfg Config, warm func(t *testing.T, env *testEnv, o *Oracle, pub func(int, *relation.Tuple))) func(t *testing.T) *raceRun {
	return func(t *testing.T) *raceRun {
		env := newTestEnv(t, 32, cfg)
		o := NewOracle()
		pub := func(node int, tu *relation.Tuple) { o.AddTuple(env.publish(t, node, tu)) }
		const pr, ps = 5, 6
		for i := 0; i < 2; i++ {
			pub(pr, rTuple(env, float64(100+i), 100, 100))
			pub(ps, sTuple(env, float64(100+i), 100, 100))
		}
		if warm != nil {
			warm(t, env, o, pub)
		}
		return &raceRun{
			net:       env.net,
			subscribe: func() { o.AddQuery(env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)) },
			meanwhile: func() { pub(pr, rTuple(env, 1, 7, 0)); pub(ps, sTuple(env, 2, 7, 0)) },
			after:     func() { pub(pr, rTuple(env, 3, 9, 0)); pub(ps, sTuple(env, 4, 9, 0)) },
			missing: func() bool {
				want, got := o.ExpectedContentKeys(), gotContents(env)
				for key := range got {
					if !want[key] {
						t.Errorf("delivered %s, which the oracle does not derive", key)
					}
				}
				for key := range want {
					if !got[key] {
						return true
					}
				}
				return false
			},
		}
	}
}

// chainRace is a 3-way chain A ⋈ B ⋈ C under SAI, its three relations
// published by one repeat publisher each; a set is one chain of them.
func chainRace(t *testing.T) *raceRun {
	env := newMultiEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft})
	pools := map[string][]*relation.Tuple{}
	pub := func(node int, s *relation.Schema, x, y, z float64) {
		tu := env.publish(t, node, env.tuple(s, x, y, z))
		pools[tu.Relation()] = append(pools[tu.Relation()], tu)
	}
	for i := 0; i < 2; i++ {
		pub(5, env.a, float64(100+i), 100, 0)
		pub(6, env.b, 100, 100, 0)
		pub(7, env.c, 100, 100, 0)
	}
	var mq *query.Query
	return &raceRun{
		net: env.net,
		subscribe: func() {
			mq = env.subscribeChain(t, 0, `SELECT A.z, B.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
		},
		meanwhile: func() { pub(5, env.a, 1, 0, 10); pub(6, env.b, 2, 1, 20); pub(7, env.c, 0, 2, 30) },
		after:     func() { pub(5, env.a, 11, 0, 11); pub(6, env.b, 12, 11, 21); pub(7, env.c, 0, 12, 31) },
		missing: func() bool {
			want := map[string]int{}
			chainMatches(t, want, mq, pools)
			got := map[string]int{}
			for _, n := range env.eng.Notifications() {
				got[n.ContentKey()]++
			}
			for key, n := range got {
				if want[key] != n {
					t.Errorf("delivered %s %d times, which %d combinations satisfy", key, n, want[key])
				}
			}
			for key := range want {
				if got[key] == 0 {
					return true
				}
			}
			return false
		},
	}
}
