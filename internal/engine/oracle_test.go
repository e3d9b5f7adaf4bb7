package engine

import (
	"math/rand"
	"strings"
	"testing"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// The oracle test: replay a random interleaving of query submissions and
// tuple insertions, compute the exact expected answer set by brute force
// (nested-loop join over the full history, respecting insertion-time
// semantics and selection predicates), and require every algorithm to
// deliver exactly that set of distinct notification contents.

type oracleRun struct {
	queries []*query.Query
	left    []*relation.Tuple
	right   []*relation.Tuple
}

func (o *oracleRun) expected(t *testing.T) map[string]bool {
	t.Helper()
	or := NewOracle()
	for _, q := range o.queries {
		or.AddQuery(q)
	}
	for _, lt := range o.left {
		or.AddTuple(lt)
	}
	for _, rt := range o.right {
		or.AddTuple(rt)
	}
	return or.ExpectedContentKeys()
}

// replay drives one configuration through a scripted random interleaving,
// seeded by cfg.Seed, and returns the oracle bookkeeping.
func replay(t *testing.T, cfg Config, sqls []string) (*testEnv, *oracleRun) {
	t.Helper()
	env := newTestEnv(t, 40, cfg)
	rng := rand.New(rand.NewSource(cfg.Seed))
	o := &oracleRun{}
	nextQuery := 0
	for step := 0; step < 90; step++ {
		switch {
		case nextQuery < len(sqls) && (step%10 == 0 || rng.Intn(6) == 0):
			q := env.subscribe(t, rng.Intn(40), sqls[nextQuery])
			o.queries = append(o.queries, q)
			nextQuery++
		case rng.Intn(2) == 0:
			tu := env.publish(t, rng.Intn(40), rTuple(env,
				float64(rng.Intn(6)), float64(rng.Intn(4)), float64(rng.Intn(4))))
			o.left = append(o.left, tu)
		default:
			tu := env.publish(t, rng.Intn(40), sTuple(env,
				float64(rng.Intn(6)), float64(rng.Intn(4)), float64(rng.Intn(4))))
			o.right = append(o.right, tu)
		}
	}
	// Install any leftover queries and give them one more matching chance.
	for ; nextQuery < len(sqls); nextQuery++ {
		o.queries = append(o.queries, env.subscribe(t, nextQuery, sqls[nextQuery]))
	}
	o.left = append(o.left, env.publish(t, 0, rTuple(env, 1, 1, 1)))
	o.right = append(o.right, env.publish(t, 1, sTuple(env, 1, 1, 1)))
	return env, o
}

func gotContents(env *testEnv) map[string]bool {
	got := make(map[string]bool)
	for _, n := range env.eng.Notifications() {
		got[n.ContentKey()] = true
	}
	return got
}

func assertSetsEqual(t *testing.T, alg Algorithm, want, got map[string]bool) {
	t.Helper()
	var missing, extra []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		t.Fatalf("%s disagrees with oracle:\nmissing (%d): %s\nextra (%d): %s",
			alg, len(missing), strings.Join(missing, ", "), len(extra), strings.Join(extra, ", "))
	}
	if len(want) == 0 {
		t.Fatalf("%s: oracle produced no matches; test is vacuous", alg)
	}
}

func TestOracleT1AllAlgorithms(t *testing.T) {
	sqls := []string{
		`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`,
		`SELECT R.A, S.D FROM R, S WHERE R.C = S.F`,
		`SELECT R.B, S.E FROM R, S WHERE R.A = S.D AND S.F >= 1`,
		`SELECT R.A FROM R, S WHERE 2 * R.B = S.E + 1`,
		`SELECT S.D FROM R, S WHERE R.B = S.E AND R.C = 2`,
		`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`, // duplicate condition: grouping path
	}
	// Indexing on demand and the paper's blind 2h messages: the same answers.
	for _, blind := range []bool{false, true} {
		for _, alg := range algorithms() {
			for seed := int64(1); seed <= 3; seed++ {
				env, o := replay(t, Config{Algorithm: alg, Seed: seed, BlindIndexing: blind}, sqls)
				assertSetsEqual(t, alg, o.expected(t), gotContents(env))
			}
		}
	}
}

func TestOracleT2DAIV(t *testing.T) {
	sqls := []string{
		`SELECT R.A, S.D FROM R, S WHERE R.B + R.C = S.E + S.F`,
		`SELECT R.A FROM R, S WHERE 2 * R.B + R.C = S.E * S.F AND S.D >= 1`,
		`SELECT R.A, S.D FROM R, S WHERE R.B + R.C = S.E * S.F`,
		`SELECT R.C, S.F FROM R, S WHERE R.A = S.D`, // T1 mixed in
	}
	for seed := int64(1); seed <= 3; seed++ {
		env, o := replay(t, Config{Algorithm: DAIV, Seed: seed}, sqls)
		assertSetsEqual(t, DAIV, o.expected(t), gotContents(env))
	}
}

// The keyed DAI-V extension (Section 4.5) must deliver the same answer set
// as grouped DAI-V while sending more join messages.
func TestOracleDAIVKeyed(t *testing.T) {
	sqls := []string{
		`SELECT R.A, S.D FROM R, S WHERE R.B + R.C = S.E + S.F`,
		`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`,
		`SELECT R.B, S.E FROM R, S WHERE R.B = S.E`, // shared condition, no grouping when keyed
	}
	env := newTestEnv(t, 40, Config{Algorithm: DAIV, DAIVKeyed: true, Seed: 2})
	rng := rand.New(rand.NewSource(5))
	o := &oracleRun{}
	for i, sql := range sqls {
		o.queries = append(o.queries, env.subscribe(t, i, sql))
	}
	for step := 0; step < 60; step++ {
		if rng.Intn(2) == 0 {
			o.left = append(o.left, env.publish(t, rng.Intn(40),
				rTuple(env, float64(rng.Intn(4)), float64(rng.Intn(3)), float64(rng.Intn(3)))))
		} else {
			o.right = append(o.right, env.publish(t, rng.Intn(40),
				sTuple(env, float64(rng.Intn(4)), float64(rng.Intn(3)), float64(rng.Intn(3)))))
		}
	}
	assertSetsEqual(t, DAIV, o.expected(t), gotContents(env))
}

func TestDAIVKeyedSendsMoreJoinMessages(t *testing.T) {
	count := func(keyed bool) int64 {
		env := newTestEnv(t, 40, Config{Algorithm: DAIV, DAIVKeyed: keyed, Seed: 3})
		// Three queries sharing one condition: grouped DAI-V sends one join
		// per trigger, keyed sends three.
		for i := 0; i < 3; i++ {
			env.subscribe(t, i, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		}
		env.net.Traffic().Reset()
		for i := 0; i < 5; i++ {
			env.publish(t, i, rTuple(env, float64(i), 7, 0))
		}
		return env.net.Traffic().Messages(kindJoin)
	}
	grouped, keyed := count(false), count(true)
	if grouped != 5 || keyed != 15 {
		t.Fatalf("join messages grouped=%d keyed=%d, want 5 and 15", grouped, keyed)
	}
}

// The oracle must also hold while the overlay churns: nodes join and leave
// between events. Voluntary departures hand their keys over, so no state
// is lost and the answer set is unchanged.
func TestOracleUnderChurn(t *testing.T) {
	sqls := []string{
		`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`,
		`SELECT R.B, S.E FROM R, S WHERE R.A = S.D`,
	}
	for _, cfg := range []Config{
		{Algorithm: SAI}, {Algorithm: DAIQ}, {Algorithm: DAIT}, {Algorithm: DAIV},
		{Algorithm: SAI, BlindIndexing: true}, {Algorithm: DAIQ, BlindIndexing: true}, {Algorithm: DAIT, BlindIndexing: true},
	} {
		alg := cfg.Algorithm
		cfg.Seed = 4
		env := newTestEnv(t, 40, cfg)
		rng := rand.New(rand.NewSource(9))
		o := &oracleRun{}
		for i, sql := range sqls {
			o.queries = append(o.queries, env.subscribe(t, i, sql))
		}
		joined := 0
		for step := 0; step < 60; step++ {
			switch rng.Intn(6) {
			case 0: // a new node joins
				n, err := env.net.Join(env.eng.Network().Nodes()[0].Key() + "-j" + string(rune('a'+joined)))
				if err == nil {
					env.eng.Attach(n)
					joined++
				}
			case 1: // a random non-subscriber node leaves voluntarily
				nodes := env.net.Nodes()
				victim := nodes[2+rng.Intn(len(nodes)-2)]
				isSubscriber := false
				for _, q := range o.queries {
					if q.Subscriber() == victim.Key() {
						isSubscriber = true
					}
				}
				if !isSubscriber && env.net.Size() > 8 {
					env.net.Leave(victim)
				}
			default:
				nodes := env.net.Nodes()
				from := nodes[rng.Intn(len(nodes))]
				if rng.Intn(2) == 0 {
					tu, err := env.eng.Publish(from, rTuple(env, float64(rng.Intn(4)), float64(rng.Intn(3)), 0))
					if err != nil {
						t.Fatal(err)
					}
					o.left = append(o.left, tu)
				} else {
					tu, err := env.eng.Publish(from, sTuple(env, float64(rng.Intn(4)), float64(rng.Intn(3)), 0))
					if err != nil {
						t.Fatal(err)
					}
					o.right = append(o.right, tu)
				}
			}
		}
		assertSetsEqual(t, alg, o.expected(t), gotContents(env))
	}
}
