package engine

import (
	"fmt"
	"slices"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/query"
)

// growsToday is what an endless stream still grows (ROADMAP V(ii)), each entry
// with the item that is to bound it.
var growsToday = map[string]string{
	"delivered":     "AG: one identity per match, never aged out",
	"vlqt_rewrites": "J(ii): stored rewrites outlive their trigger's window",
	"retracted":     "J(i): the retraction memory, bounded at retractedMax per process and aged by nothing but its restart",
}

// A daemon that has run for a week must behave like one that has run for a
// minute: a sliding window of join keys streams through a windowed SAI ring
// while one query stays, others come and go, and nodes join and leave; every
// census entry at 10N publications is within 10 % of its sum at N — but for
// the entries growsToday names, which are exactly the ones that grow.
func TestSteadyStateIsBounded(t *testing.T) {
	n := 2000
	if testing.Short() {
		n = 500
	}
	const (
		window  = 64 // logical time: one publication a tick
		keys    = 32 // the key window slides over these, four publications a key
		queries = 4  // live at once: each new one retracts the oldest
	)
	env := newTestEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyLeft, Window: window, Seed: 11})
	sqls := []string{
		`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`,
		`SELECT R.A, R.C, S.D FROM R, S WHERE R.B = S.E`,
	}
	// A query that stays: every third R tuple stores its rewrite, which no S
	// tuple of the stream, whose F is below 3, ever matches.
	env.subscribe(t, 9, sqls[0]+` AND R.C = 0 AND S.F = 3`)
	var live []*query.Query
	var joiner *chord.Node
	joins := 0
	step := func(i int) {
		key := float64(i / 4 % keys)
		if i%2 == 0 { // from the ring's first nodes, which never leave
			env.publish(t, i*7, rTuple(env, float64(i), key, float64(i%3)))
		} else {
			env.publish(t, i*7, sTuple(env, float64(i), key, float64(i%3)))
		}
		if i%10 == 9 {
			env.eng.EvictExpired()
		}
		if i%25 == 0 {
			live = append(live, env.subscribe(t, i/25%8, sqls[i/25%len(sqls)]))
			if len(live) > queries {
				if err := env.eng.Unsubscribe(env.node(0), live[0]); err != nil {
					t.Fatal(err)
				}
				live = live[1:]
			}
		}
		if i%50 == 49 {
			if joiner != nil {
				env.net.Leave(joiner)
				env.eng.Detach(joiner)
				joiner = nil
			} else {
				var err error
				if joiner, err = env.net.Join(fmt.Sprintf("soak-%d", joins%3)); err != nil {
					t.Fatal(err)
				}
				env.eng.Attach(joiner)
				joins++
			}
		}
	}
	for i := 0; i < n; i++ {
		step(i)
	}
	atN := censusSums(env.eng)
	for i := n; i < 10*n; i++ {
		step(i)
	}
	at10N := censusSums(env.eng)
	var grew []string
	for _, name := range sortedKeys(at10N) {
		t.Logf("%-20s %8d at N, %8d at 10N", name, atN[name], at10N[name])
		if float64(at10N[name]) > 1.1*float64(atN[name]) {
			grew = append(grew, name)
		}
	}
	if want := sortedKeys(growsToday); !slices.Equal(grew, want) {
		t.Fatalf("the census entries that grew from N to 10N are %v; the allow-list names %v", grew, want)
	}
	if env.eng.NotificationCount() == 0 {
		t.Fatal("the stream joined nothing")
	}
}
