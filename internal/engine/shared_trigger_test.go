package engine

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// A rewriter projects the trigger once per group and projection shape, so
// the rewrites a group stores at its evaluator share one immutable tuple.
// The sharing must be invisible: the group yields exactly the notifications
// per-query projections did, and retracting one member — which purges its
// stored rewrite — leaves the others firing off the tuple they still share.
func TestSharedTriggerGroup(t *testing.T) {
	env := newTestEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 5})
	const sql = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	qs := make([]*query.Query, 4)
	keys := make([]string, 4)
	for i := range qs {
		qs[i] = env.subscribe(t, i, sql)
		keys[i] = qs[i].Key()
	}
	// Same join condition, so the same group; another projection shape.
	other := env.subscribe(t, 4, `SELECT R.C, S.D FROM R, S WHERE R.B = S.E`)

	r1 := env.publish(t, 10, rTuple(env, 1, 7, 30)).PubT()

	// The evaluator of S+E+7 now stores the five rewrites: one trigger
	// tuple for the four of one shape, another for the fifth.
	triggers := make(map[*relation.Tuple][]string)
	for _, n := range env.nodes {
		st := env.eng.state(n)
		st.mu.Lock()
		if qb := st.vlqt["S+E+7"]; qb != nil {
			for _, rw := range qb.rewrites.all() {
				triggers[rw.Trigger] = append(triggers[rw.Trigger], rw.Orig.Key())
			}
		}
		st.mu.Unlock()
	}
	var shapes [][]string
	for _, group := range triggers {
		sort.Strings(group)
		shapes = append(shapes, group)
	}
	sort.Slice(shapes, func(i, j int) bool { return len(shapes[i]) > len(shapes[j]) })
	wantShapes := [][]string{append([]string(nil), keys...), {other.Key()}}
	sort.Strings(wantShapes[0])
	if !reflect.DeepEqual(shapes, wantShapes) {
		t.Fatalf("stored rewrites by trigger tuple = %v, want %v", shapes, wantShapes)
	}

	var want []string
	expect := func(key string, r, s float64, leftPubT, rightPubT int64) {
		want = append(want, fmt.Sprintf("%s|%g|%g|%d|%d", key, r, s, leftPubT, rightPubT))
	}
	check := func(stage string) {
		t.Helper()
		var got []string
		for _, n := range env.eng.Notifications() {
			got = append(got, fmt.Sprintf("%s|%d|%d", n.ContentKey(), n.LeftPubT, n.RightPubT))
		}
		sort.Strings(got)
		sort.Strings(want)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n got %v\nwant %v", stage, got, want)
		}
	}

	s1 := env.publish(t, 11, sTuple(env, 2, 7, 0)).PubT()
	for _, k := range keys {
		expect(k, 1, 2, r1, s1)
	}
	expect(other.Key(), 30, 2, r1, s1)
	check("full group")

	// Retract the second member; the shared tuple must keep serving the rest.
	if err := env.eng.Unsubscribe(env.node(1), qs[1]); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	s2 := env.publish(t, 12, sTuple(env, 3, 7, 0)).PubT()
	r2 := env.publish(t, 13, rTuple(env, 4, 7, 31)).PubT()
	for i, k := range keys {
		if i == 1 {
			continue
		}
		expect(k, 1, 3, r1, s2)
		expect(k, 4, 2, r2, s1)
		expect(k, 4, 3, r2, s2)
	}
	expect(other.Key(), 30, 3, r1, s2)
	expect(other.Key(), 31, 2, r2, s1)
	expect(other.Key(), 31, 3, r2, s2)
	check("after retracting one member")
}

// Under a strategy that never probes, rewriters record no arrival
// statistics; under one that does, a probe sees them and — with a sliding
// window — drops the arrivals that have left it.
func TestProbeStatsOnlyWhenProbed(t *testing.T) {
	arrivals := func(env *testEnv) (n, distinct int) {
		for _, node := range env.nodes {
			st := env.eng.state(node)
			st.mu.Lock()
			for _, b := range st.alqt {
				n += len(b.arrivals)
				distinct += len(b.distinct)
			}
			st.mu.Unlock()
		}
		return n, distinct
	}
	for _, strategy := range []Strategy{StrategyRandom, StrategyLeft} {
		env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: strategy})
		env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		for i := 0; i < 5; i++ {
			env.publish(t, i, rTuple(env, float64(i), float64(i), 0))
		}
		if n, d := arrivals(env); n != 0 || d != 0 {
			t.Fatalf("%s: %d arrivals, %d distinct values recorded with nothing to read them", strategy, n, d)
		}
	}

	env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyMinRate, Window: 4})
	for i := 0; i < 6; i++ { // pubT 1..6, three attributes each
		env.publish(t, i, rTuple(env, float64(i), 7, 0))
	}
	if n, d := arrivals(env); n != 18 || d != 6+1+1 {
		t.Fatalf("probing strategy recorded %d arrivals, %d distinct values; want 18, 8", n, d)
	}
	// Subscribing probes R+B and S+E at clock 6 — the insertion time is drawn
	// after the index side is chosen and its interest mark acked — so the
	// window keeps pubT >= 2 and R+B loses its oldest arrival.
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	if n, _ := arrivals(env); n != 17 {
		t.Fatalf("%d arrivals left after the probe; want 17", n)
	}
}
