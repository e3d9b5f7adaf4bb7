package engine

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// A rewriter builds one target per triggered group, and its trigger is the
// tuple it received: the rewrites a group stores at its evaluator share the
// publication itself, whatever their projection shapes, and what travels is
// each one's projection, so a decoded group holds one target per shape whose
// trigger has its query's projection schema. The sharing must be invisible:
// the group yields exactly the notifications per-query projections did, and
// retracting one member — which purges its stored rewrite — leaves the
// others firing off the tuple they still share.
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

	tap := &joinTap{}
	env.net.SetTransport(tap)
	published := env.publish(t, 10, rTuple(env, 1, 7, 30))
	r1 := published.PubT()

	// The evaluator of S+E+7 now stores the five rewrites, of one target
	// whose trigger is the published tuple.
	var stored []*rewritten
	for _, n := range env.nodes {
		st := env.eng.state(n)
		st.mu.Lock()
		if qb := st.vlSlotOf("S+E+7").q; qb != nil {
			stored = append(stored, qb.rewrites.all()...)
		}
		st.mu.Unlock()
	}
	if len(stored) != 5 {
		t.Fatalf("%d rewrites stored at S+E+7, want the group's 5", len(stored))
	}
	for _, rw := range stored {
		if rw.rewriteTarget != stored[0].rewriteTarget || rw.Trigger != published {
			t.Fatalf("%s's rewrite holds target %p and trigger %v, want the group's %p and the publication %v",
				rw.Orig.Key(), rw.rewriteTarget, rw.Trigger, stored[0].rewriteTarget, published)
		}
	}

	// Decoded, the same rewrites hold one target per shape.
	if len(tap.msgs) != 1 {
		t.Fatalf("%d join messages, want the group's one", len(tap.msgs))
	}
	codec := NewWireCodec(env.catalog)
	var w wire.Buffer
	if err := codec.Encode(&w, tap.msgs[0]); err != nil {
		t.Fatal(err)
	}
	back, err := codec.Decode(wire.NewReader(w.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	byTarget := make(map[*rewriteTarget][]string)
	for _, rw := range back.(*joinMsg).Rewrites {
		if rw.Trigger.Schema() != rw.Orig.Projection(query.SideLeft) {
			t.Fatalf("%s's decoded trigger has schema %s, want its projection %s", rw.Orig.Key(), rw.Trigger.Schema(), rw.Orig.Projection(query.SideLeft))
		}
		byTarget[rw.rewriteTarget] = append(byTarget[rw.rewriteTarget], rw.Orig.Key())
	}
	var shapes [][]string
	for _, group := range byTarget {
		sort.Strings(group)
		shapes = append(shapes, group)
	}
	sort.Slice(shapes, func(i, j int) bool { return len(shapes[i]) > len(shapes[j]) })
	wantShapes := [][]string{append([]string(nil), keys...), {other.Key()}}
	sort.Strings(wantShapes[0])
	if !reflect.DeepEqual(shapes, wantShapes) {
		t.Fatalf("decoded rewrites by target = %v, want %v", shapes, wantShapes)
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

// A group of two shapes shares one target at its rewriter, yet a rewrite
// repeats its predecessor's target on the wire (sideRepeat) only where both
// project the trigger onto one shape: a narrow, a wide and a narrow query
// decode to three targets, each trigger of its own query's projection, and
// the decoded join encodes to the bytes sent.
func TestTwoShapeJoinRoundTrips(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 5})
	const narrow, wide = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`, `SELECT R.A, R.C, S.D FROM R, S WHERE R.B = S.E`
	for i, sql := range []string{narrow, wide, narrow} {
		env.subscribe(t, i, sql)
	}
	tap := &joinTap{}
	env.net.SetTransport(tap)
	env.publish(t, 9, rTuple(env, 1, 7, 2))
	if len(tap.msgs) != 1 {
		t.Fatalf("%d join messages, want the group's one", len(tap.msgs))
	}
	sent := tap.msgs[0].(*joinMsg)
	for _, rw := range sent.Rewrites {
		if rw.rewriteTarget != sent.Rewrites[0].rewriteTarget {
			t.Fatal("a group's rewrites do not share one target")
		}
	}
	var w wire.Buffer
	if err := EncodeMessage(&w, sent); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeMessage(wire.NewReader(w.Bytes()), env.catalog)
	if err != nil {
		t.Fatal(err)
	}
	targets := map[*rewriteTarget]bool{}
	for i := range back.(*joinMsg).Rewrites {
		rw := &back.(*joinMsg).Rewrites[i]
		assertRewrittenEqual(t, &sent.Rewrites[i], rw)
		if rw.Trigger.Schema() != rw.Orig.Projection(query.SideLeft) {
			t.Fatalf("rewrite %d's trigger decoded as %s, want its query's %s", i, rw.Trigger.Schema(), rw.Orig.Projection(query.SideLeft))
		}
		targets[rw.rewriteTarget] = true
	}
	if len(targets) != 3 {
		t.Fatalf("%d targets decoded, want one per run of a shape: 3", len(targets))
	}
	var again wire.Buffer
	if err := EncodeMessage(&again, back); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), w.Bytes()) || MessageSize(sent) != w.Len() {
		t.Fatalf("sent %d bytes (sized %d)\n%x\ndecoded and sent again\n%x", w.Len(), MessageSize(sent), w.Bytes(), again.Bytes())
	}
}

// Under SAI the evaluator copies nothing of a trigger: every stored rewrite's
// trigger is a tuple some value-level tuple table holds, by pointer — the
// publication the rewriter received and forwarded. Queries on both index
// sides of one condition make each side's tuples both triggers and stored.
func TestStoredTriggersAreStoredTuples(t *testing.T) {
	env := newTestEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyRandom, Seed: 3})
	for i := 0; i < 8; i++ {
		env.subscribe(t, i, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	}
	for i := 0; i < 12; i++ {
		env.publish(t, i, rTuple(env, float64(i), float64(i%4), 0))
		env.publish(t, 20+i, sTuple(env, float64(i), float64(i%3), 0))
	}
	held := map[*relation.Tuple]bool{}
	var rewrites []*rewritten
	for _, n := range env.nodes {
		st := env.eng.state(n)
		st.mu.Lock()
		for _, s := range st.vl {
			if s.t != nil {
				for _, tu := range s.t.tuples.all() {
					held[tu] = true
				}
			}
			if s.q != nil {
				rewrites = append(rewrites, s.q.rewrites.all()...)
			}
		}
		st.mu.Unlock()
	}
	sides := map[query.Side]int{}
	for _, rw := range rewrites {
		if !held[rw.Trigger] {
			t.Fatalf("%s's stored trigger %v is no tuple a value-level table holds", rw.Orig.Key(), rw.Trigger)
		}
		sides[rw.IndexSide]++
	}
	if sides[query.SideLeft] == 0 || sides[query.SideRight] == 0 {
		t.Fatalf("stored rewrites by index side: %v; the case exercises one side only", sides)
	}
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
