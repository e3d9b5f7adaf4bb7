package engine

import (
	"encoding/hex"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/metrics"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

func TestUnsubscribeStopsNotifications(t *testing.T) {
	for _, alg := range []Algorithm{SAI, DAIQ, DAIT, DAIV} {
		t.Run(alg.String(), func(t *testing.T) {
			env := newTestEnv(t, 48, Config{Algorithm: alg, Seed: 1})
			q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
			env.publish(t, 1, rTuple(env, 1, 7, 0))
			env.publish(t, 2, sTuple(env, 2, 7, 0))
			if got := len(env.eng.Notifications()); got != 1 {
				t.Fatalf("before retraction: %d notifications", got)
			}
			if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
				t.Fatalf("Unsubscribe: %v", err)
			}
			// Neither a fresh pair nor a partner for the old stored tuple
			// may notify now.
			env.publish(t, 3, sTuple(env, 3, 7, 0))
			env.publish(t, 4, rTuple(env, 4, 9, 0))
			env.publish(t, 5, sTuple(env, 5, 9, 0))
			if got := len(env.eng.Notifications()); got != 1 {
				t.Fatalf("after retraction: %d notifications, want still 1", got)
			}
		})
	}
}

func TestUnsubscribeReclaimsStorage(t *testing.T) {
	for _, alg := range []Algorithm{SAI, DAIT} {
		t.Run(alg.String(), func(t *testing.T) {
			env := newTestEnv(t, 48, Config{Algorithm: alg, Seed: 2})
			q := env.subscribe(t, 0, `SELECT S.D FROM R, S WHERE R.B = S.E`)
			// Fan rewrites out to several evaluators.
			for i := 0; i < 10; i++ {
				env.publish(t, i, rTuple(env, 0, float64(i), 0))
			}
			queryStorage := sum(env.eng.RoleLoads(metrics.Rewriter, true))
			rewriteStorage := sum(env.eng.RoleLoads(metrics.Evaluator, true))
			if queryStorage == 0 || rewriteStorage == 0 {
				t.Fatalf("set-up stored nothing: q=%d rw=%d", queryStorage, rewriteStorage)
			}
			if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
				t.Fatalf("Unsubscribe: %v", err)
			}
			if got := sum(env.eng.RoleLoads(metrics.Rewriter, true)); got != 0 {
				t.Fatalf("rewriter storage after retraction = %d, want 0", got)
			}
			// The 10 distinct rewrites are purged; tuples stored at the
			// value level are shared state and survive.
			if got := sum(env.eng.RoleLoads(metrics.Evaluator, true)); got != rewriteStorage-10 {
				t.Fatalf("evaluator storage after retraction = %d, want %d (10 rewrites purged)",
					got, rewriteStorage-10)
			}
			// Nor does a checkpoint keep the retracted query: the engine
			// once registered every join condition for good and wrote them
			// all into every snapshot.
			meta, _ := env.eng.ExportSnapshot(nil)
			if m := meta.(snapMetaMsg); len(m.Conds) != 0 || len(m.Subs) != 0 {
				t.Fatalf("snapshot meta after retraction lists %d conditions and %d subscriptions, want none",
					len(m.Conds), len(m.Subs))
			}
		})
	}
}

func TestUnsubscribeLeavesGroupPeersIntact(t *testing.T) {
	env := newTestEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 3})
	q1 := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.subscribe(t, 1, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	if err := env.eng.Unsubscribe(env.node(0), q1); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	env.publish(t, 2, rTuple(env, 1, 7, 0))
	env.publish(t, 3, sTuple(env, 2, 7, 0))
	got := env.eng.Notifications()
	if len(got) != 1 {
		t.Fatalf("%d notifications, want 1 (for the surviving peer)", len(got))
	}
	if got[0].Subscriber != env.node(1).Key() {
		t.Fatalf("notified %s, want the surviving subscriber", got[0].Subscriber)
	}
}

func TestUnsubscribeWithReplication(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI, ReplicationFactor: 3, Seed: 4})
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	if got := sum(env.eng.RoleLoads(metrics.Rewriter, true)); got != 3 {
		t.Fatalf("replicated query storage = %d, want 3", got)
	}
	if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	if got := sum(env.eng.RoleLoads(metrics.Rewriter, true)); got != 0 {
		t.Fatalf("storage after replicated retraction = %d, want 0", got)
	}
	env.publish(t, 1, rTuple(env, 1, 7, 0))
	env.publish(t, 2, sTuple(env, 2, 7, 0))
	if got := len(env.eng.Notifications()); got != 0 {
		t.Fatalf("retracted replicated query still notified: %d", got)
	}
}

func TestUnsubscribeErrors(t *testing.T) {
	env := newTestEnv(t, 16, Config{Algorithm: SAI})
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
		t.Fatalf("first Unsubscribe: %v", err)
	}
	if err := env.eng.Unsubscribe(env.node(0), q); err == nil {
		t.Fatal("double retraction accepted")
	}
}

func TestUnsubscribeMultiStopsNotifications(t *testing.T) {
	for _, alg := range []Algorithm{SAI, DAIQ} {
		t.Run(alg.String(), func(t *testing.T) {
			env := newMultiEnv(t, 48, Config{Algorithm: alg, Strategy: StrategyLeft, Seed: 6})
			mq := env.subscribeChain(t, 0, `SELECT A.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
			// Stage one fires: a partial match A⋈B is stored mid-pipeline.
			env.publish(t, 1, env.tuple(env.a, 1, 0, 10))
			env.publish(t, 2, env.tuple(env.b, 2, 1, 20))
			if err := env.eng.Unsubscribe(env.nodes[0], mq); err != nil {
				t.Fatalf("Unsubscribe: %v", err)
			}
			// Neither the completing tuple for the stored partial match nor
			// an entirely fresh chain may notify now.
			env.publish(t, 3, env.tuple(env.c, 0, 2, 30))
			env.publish(t, 4, env.tuple(env.a, 1, 0, 11))
			env.publish(t, 5, env.tuple(env.b, 2, 1, 21))
			env.publish(t, 6, env.tuple(env.c, 0, 2, 31))
			if got := env.eng.Notifications(); len(got) != 0 {
				t.Fatalf("retracted chain notified: %v", got)
			}
			if err := env.eng.Unsubscribe(env.nodes[0], mq); err == nil {
				t.Fatal("double multi retraction accepted")
			}
		})
	}
}

func TestUnsubscribeMultiPurgesPipeline(t *testing.T) {
	env := newMultiEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 7})
	mq := env.subscribeChain(t, 0, `SELECT A.z, D.z FROM A, B, C, D WHERE A.x = B.y AND B.x = C.y AND C.x = D.y`)
	// Drive the chain two stages deep so partial matches sit at several
	// evaluators; the purge must cascade along the recorded fan-out.
	env.publish(t, 1, env.tuple(env.a, 1, 0, 10))
	env.publish(t, 2, env.tuple(env.b, 2, 1, 20))
	env.publish(t, 3, env.tuple(env.c, 3, 2, 30))
	if got := sum(env.eng.RoleLoads(metrics.Rewriter, true)); got == 0 {
		t.Fatal("set-up stored no chain query")
	}
	evalBefore := sum(env.eng.RoleLoads(metrics.Evaluator, true))
	if evalBefore == 0 {
		t.Fatal("set-up stored no partial matches")
	}
	if err := env.eng.Unsubscribe(env.nodes[0], mq); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	if got := sum(env.eng.RoleLoads(metrics.Rewriter, true)); got != 0 {
		t.Fatalf("rewriter storage after retraction = %d, want 0", got)
	}
	// The three pipeline-stage partial matches (one per published tuple) are
	// purged; tuples stored at the value level are shared state and survive.
	if got := sum(env.eng.RoleLoads(metrics.Evaluator, true)); got != evalBefore-3 {
		t.Fatalf("evaluator storage after retraction = %d, want %d (3 partial matches purged)",
			got, evalBefore-3)
	}
	env.publish(t, 4, env.tuple(env.d, 0, 3, 40))
	if got := env.eng.Notifications(); len(got) != 0 {
		t.Fatalf("purged pipeline completed: %v", got)
	}
}

func TestUnsubscribeMultiLeavesOtherChainsIntact(t *testing.T) {
	env := newMultiEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 8})
	mq1 := env.subscribeChain(t, 0, `SELECT A.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
	env.subscribeChain(t, 1, `SELECT A.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
	env.publish(t, 2, env.tuple(env.a, 1, 0, 10))
	if err := env.eng.Unsubscribe(env.nodes[0], mq1); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	env.publish(t, 3, env.tuple(env.b, 2, 1, 20))
	env.publish(t, 4, env.tuple(env.c, 0, 2, 30))
	got := env.eng.Notifications()
	if len(got) != 1 {
		t.Fatalf("%d notifications, want 1 (for the surviving chain)", len(got))
	}
	if got[0].Subscriber != env.nodes[1].Key() {
		t.Fatalf("notified %s, want the surviving subscriber", got[0].Subscriber)
	}
}

// TestUnsubscribeRetractsAParentsChain decodes chains of two and three
// relations that an earlier build indexed — an alMultiSection handed over, in
// the bytes that build wrote — at a node. That build walked them from the end
// of the chain, reversed from the text's, and so does the group they decode
// into. The one Unsubscribe, given each query as its text parses (as a
// durable replay retracts it), must take the group away: the census shows it
// gone, and a later matching chain of tuples triggers nothing. The chain's
// own query message that build sent, tag 14, is retired: its bytes are
// refused as an unknown tag.
func TestUnsubscribeRetractsAParentsChain(t *testing.T) {
	for _, c := range []struct{ name, sql, input, frame string }{
		{"k=2/query", `SELECT A.z, B.z FROM A, B WHERE A.x = B.y`, "B+y",
			"0e07706565723023310570656572300b73696d3a2f2f7065657230002953454c45435420412e7a2c20422e7a2046524f4d20412c204220574845524520412e78203d20422e790142017900"},
		{"k=2/handoff", `SELECT A.z, B.z FROM A, B WHERE A.x = B.y`, "B+y",
			"100103422b79000109422e79203d20412e780107706565723023310570656572300b73696d3a2f2f7065657230002953454c45435420412e7a2c20422e7a2046524f4d20412c204220574845524520412e78203d20422e79014200000000000000"},
		{"k=3/query", `SELECT A.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`, "C+y",
			"0e07706565723023310570656572300b73696d3a2f2f7065657230003a53454c45435420412e7a2c20432e7a2046524f4d20412c20422c204320574845524520412e78203d20422e7920414e4420422e78203d20432e790143017900"},
		{"k=3/handoff", `SELECT A.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`, "C+y",
			"100103432b79000117432e79203d20422e7820414e4420422e79203d20412e780107706565723023310570656572300b73696d3a2f2f7065657230003a53454c45435420412e7a2c20432e7a2046524f4d20412c20422c204320574845524520412e78203d20422e7920414e4420422e78203d20432e79014300000000000000"},
	} {
		t.Run(c.name, func(t *testing.T) {
			env := newMultiEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft})
			raw, err := hex.DecodeString(c.frame)
			if err != nil {
				t.Fatal(err)
			}
			msg, err := DecodeMessage(wire.NewReader(raw), env.catalog)
			if strings.HasSuffix(c.name, "/query") {
				if err == nil || !strings.Contains(err.Error(), "unknown message tag 14") {
					t.Fatalf("a parent's chain query decodes to %+v (%v), want an unknown tag", msg, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("the frame no longer decodes: %v", err)
			}
			g := msg.(handoffMsg).AL[0].Groups[0]
			chain := g.Queries[0]
			if g.Side != query.SideRight {
				t.Fatalf("the fixture's chain is walked from its %s end, as its text: it tests nothing", g.Side)
			}
			// The subscriber marked the chain's later stages and remembers
			// where it indexed it, as the earlier build's Subscribe did.
			sub := env.nodes[0]
			marks := env.eng.interestInputs(chain, g.Side)
			if err := env.eng.announceInterest(sub, chain.Key(), marks); err != nil {
				t.Fatal(err)
			}
			env.eng.mu.Lock()
			env.eng.subs[chain.Key()] = standing{q: chain, inputs: append(marks, c.input)}
			env.eng.mu.Unlock()
			if _, _, err := env.nodes[5].Send(msg, id.Hash(c.input)); err != nil {
				t.Fatal(err)
			}

			publishChain := func(z float64) {
				env.publish(t, 1, env.tuple(env.a, 1, 0, z))
				env.publish(t, 2, env.tuple(env.b, 2, 1, z))
				env.publish(t, 3, env.tuple(env.c, 0, 2, z))
			}
			publishChain(10)
			if got := env.eng.Notifications(); len(got) != 1 || got[0].QueryKey != chain.Key() {
				t.Fatalf("the decoded chain delivered %v, want one match", got)
			}
			if got := env.eng.Census()["alqt_queries"].Sum; got != 1 {
				t.Fatalf("the census counts %d stored queries, want the chain", got)
			}

			if err := env.eng.Unsubscribe(sub, query.MustParse(env.catalog, c.sql).WithRestoredIdentity(chain.Key(), sub.Key(), "")); err != nil {
				t.Fatalf("Unsubscribe: %v", err)
			}
			census := env.eng.Census()
			if census["alqt_queries"].Sum != 0 || census["alqt_marks"].Sum != 0 {
				t.Fatalf("after the retraction the census counts %d stored queries and %d marks",
					census["alqt_queries"].Sum, census["alqt_marks"].Sum)
			}
			publishChain(11)
			if got := env.eng.Notifications(); len(got) != 1 {
				t.Fatalf("the retracted chain delivered %v", got[1:])
			}
		})
	}
}

func TestResubscribeAfterUnsubscribe(t *testing.T) {
	// DAI-T's reindex-once markers must be cleared by retraction so an
	// identical re-subscription behaves like a fresh query.
	env := newTestEnv(t, 48, Config{Algorithm: DAIT, Seed: 5})
	q := env.subscribe(t, 0, `SELECT S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 1, rTuple(env, 0, 7, 0))
	if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	env.subscribe(t, 0, `SELECT S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 2, rTuple(env, 0, 7, 0))
	env.publish(t, 3, sTuple(env, 9, 7, 0))
	if got := len(env.eng.Notifications()); got != 1 {
		t.Fatalf("re-subscription delivered %d notifications, want 1", got)
	}
}

// A purge is sent like any other message: a lost one is retried within
// Config.MaxRetries, and booked lost past it. The rewriter's purge fan-out
// once called Multisend itself and dropped the result, so a dropped purge left
// its rewrite stored for good behind an Unsubscribe that had returned nil, with
// nothing in the ledger. A purge hinted through the JFRT is retried alike.
func TestLostPurgeIsRetried(t *testing.T) {
	for _, jfrt := range []bool{false, true} {
		env := newTestEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 4, MaxRetries: 4, UseJFRT: jfrt})
		q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		for i := 0; i < 6; i++ {
			env.publish(t, 1+i, rTuple(env, 0, float64(i), 0))
		}
		if _, _, rewrites := ringHolds(env); rewrites != 6 {
			t.Fatalf("JFRT %v: set-up stored %d rewrites, want 6", jfrt, rewrites)
		}
		drop := &parkKind{kind: (*purgeMsg)(nil).Kind(), armed: 1, only: func(m chord.Message) bool {
			_, purge := m.(*purgeMsg)
			return purge
		}}
		env.net.SetInterceptor(drop)
		if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
			t.Fatalf("JFRT %v: Unsubscribe: %v", jfrt, err)
		}
		if len(drop.parked) != 1 {
			t.Fatalf("JFRT %v: %d purges dropped, want 1", jfrt, len(drop.parked))
		}
		traffic := env.net.Traffic()
		if _, _, rewrites := ringHolds(env); rewrites != 0 || traffic.TotalLost() != 0 {
			t.Fatalf("JFRT %v: %d rewrites still stored behind a dropped purge, %d messages booked lost", jfrt, rewrites, traffic.TotalLost())
		}
		if traffic.Retries((*purgeMsg)(nil).Kind()) == 0 {
			t.Fatalf("JFRT %v: the dropped purge was never re-sent", jfrt)
		}
	}
}

// With the JFRT on, a retraction's rewriter sends each purge straight to the
// evaluator its table remembers taking the query's joins: one hop a target,
// and one more a hand-back where a node joined since and took the input
// over. Both rings purge every rewrite and deliver the same notifications.
func TestJFRTPurgesGoStraightToTheirEvaluators(t *testing.T) {
	const sql = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	delivered := map[bool][]string{}
	for _, jfrt := range []bool{false, true} {
		env := newTestEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyLeft, UseJFRT: jfrt, Seed: 2})
		q := env.subscribe(t, 0, sql)
		for i := 0; i < 8; i++ {
			env.publish(t, 1+i, rTuple(env, float64(i), float64(i), 0))
			env.publish(t, 20+i, sTuple(env, float64(i), float64(i), 0))
		}
		// A joiner takes one evaluator's input over, its stored rewrite with it.
		joiner, err := env.net.Join(keyTaking(t, env.net, "S+E+0"))
		if err != nil {
			t.Fatal(err)
		}
		env.eng.Attach(joiner)
		targets := 0
		for _, n := range env.net.Nodes() {
			st := env.eng.state(n)
			st.mu.Lock()
			for _, b := range st.alqt {
				if g := condEntryOf(&b.byCond, q.ConditionKey(), nil); g != nil {
					targets += len(g.targets(q))
				}
			}
			st.mu.Unlock()
		}
		// The retraction waits at its rewriter, so what its purges cost is
		// counted alone.
		park := &parkKind{kind: kindUnsub, armed: 1 << 10, only: func(m chord.Message) bool {
			_, retraction := m.(*unsubMsg)
			return retraction
		}}
		env.net.SetInterceptor(park)
		_ = env.eng.Unsubscribe(env.node(0), q) // parked: not acked
		env.net.SetInterceptor(nil)
		tr := env.net.Traffic()
		hops, handbacks := tr.Hops(kindUnsub), env.net.Handbacks()
		park.release()
		purgeHops, back := tr.Hops(kindUnsub)-hops, env.net.Handbacks()-handbacks
		t.Logf("JFRT %v: %d targets purged over %d hops, %d of them hand-backs", jfrt, targets, purgeHops, back)
		if _, _, rewrites := ringHolds(env); targets != 8 || rewrites != 0 {
			t.Fatalf("JFRT %v: %d rewrites left behind a retraction of %d targets, want none of 8", jfrt, rewrites, targets)
		}
		if jfrt && (purgeHops > int64(targets)+back || back == 0) {
			t.Fatalf("the purges of %d remembered targets cost %d hops with %d hand-backs, want at most one a target and one a hand-back, and the joiner's hand-back",
				targets, purgeHops, back)
		}
		for i := 0; i < 8; i++ {
			env.publish(t, 40+i, rTuple(env, float64(i), float64(i), 0))
			env.publish(t, 50+i, sTuple(env, float64(i), float64(i), 0))
		}
		for _, n := range env.eng.Notifications() {
			delivered[jfrt] = append(delivered[jfrt], n.ContentKey())
		}
		slices.Sort(delivered[jfrt])
	}
	if len(delivered[true]) != 8 || !slices.Equal(delivered[true], delivered[false]) {
		t.Fatalf("JFRT on delivers\n%v\nJFRT off\n%v\nwant the same 8", delivered[true], delivered[false])
	}
}

// purgeRecorder passes every delivery on and records the inputs purges were
// delivered to.
type purgeRecorder struct{ inputs map[string]bool }

func (p *purgeRecorder) Deliver(_, _ *chord.Node, msg chord.Message, forward func() bool) int {
	if m, ok := msg.(*purgeMsg); ok {
		p.inputs[m.Input] = true
	}
	return btoi(forward())
}

// retractRecorded retracts q and returns the sorted inputs its purges went to.
func retractRecorded(t *testing.T, env *testEnv, from int, q *query.Query) []string {
	t.Helper()
	rec := &purgeRecorder{inputs: map[string]bool{}}
	env.net.SetInterceptor(rec)
	defer env.net.SetInterceptor(nil)
	if err := env.eng.Unsubscribe(env.node(from), q); err != nil {
		t.Fatal(err)
	}
	return sortedKeys(rec.inputs)
}

// heldAt returns the sorted inputs whose VLQT bucket holds a rewrite of
// query key.
func heldAt(env *testEnv, key string) []string {
	var inputs []string
	for _, n := range env.net.Nodes() {
		st := env.eng.state(n)
		st.mu.Lock()
		for _, s := range st.vl {
			if s.q == nil {
				continue
			}
			if i := slices.IndexFunc(s.q.rewrites.all(), func(rw *rewritten) bool { return rw.Orig.Key() == key }); i >= 0 {
				inputs = append(inputs, string(s.q.rewrites.all()[i].appendInput(nil)))
			}
		}
		st.mu.Unlock()
	}
	slices.Sort(inputs)
	return inputs
}

// purgeFill subscribes three queries on one condition at three times — the
// second with a predicate on the rewriter's side — with R tuples published
// between them, each rewriting the group toward S+E+b. Input S+E+2 is
// triggered again last, by a tuple the second query's predicate refuses.
// Rewrites are held at (first, second, third): b in 1..8, {4, 5, 7} and
// {2, 7, 8}.
func purgeFill(t *testing.T, env *testEnv) (qs [3]*query.Query) {
	const pair = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	publish := func(bs []float64, c float64) {
		for _, b := range bs {
			env.publish(t, 10+int(b), rTuple(env, 100+b, b, c))
		}
	}
	qs[0] = env.subscribe(t, 0, pair)
	publish([]float64{1, 2, 3}, 0)
	qs[1] = env.subscribe(t, 1, pair+` AND R.C = 1`)
	publish([]float64{4, 5}, 1)
	publish([]float64{6}, 0)
	qs[2] = env.subscribe(t, 2, pair)
	publish([]float64{7}, 1)
	publish([]float64{8, 2}, 0)
	return qs
}

// inputsOf returns the S+E inputs of values bs, sorted.
func inputsOf(bs ...float64) []string {
	var inputs []string
	for _, b := range bs {
		inputs = append(inputs, vlInput("S", "E", relation.N(b)))
	}
	slices.Sort(inputs)
	return inputs
}

// A rewriter remembers where a condition group's rewrites went once for the
// group, with the newest time that triggered it there, not once per query. A
// retraction purges the inputs triggered at or after its query's insT — where
// its rewrites are, and for a query with a predicate a superset — and the list
// then forgets what is older than every live query. Both rules show: purging
// the whole list sends the third query's purges where it has no rewrite, and
// pruning at any other bound loses the second query's targets or keeps what
// no live query needs.
func TestRetractionPurgesWhereItsRewritesAre(t *testing.T) {
	env := newTestEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 4})
	qs := purgeFill(t, env)
	held := [3][]string{inputsOf(1, 2, 3, 4, 5, 6, 7, 8), inputsOf(4, 5, 7), inputsOf(2, 7, 8)}
	for i, q := range qs {
		if got := heldAt(env, q.Key()); !slices.Equal(got, held[i]) {
			t.Fatalf("query %d's rewrites are held at %v, want %v", i+1, got, held[i])
		}
	}
	if got := env.eng.Census()["alqt_purge_entries"].Sum; got != 8 {
		t.Fatalf("the group's purge list holds %d inputs, want 8", got)
	}
	for _, step := range []struct {
		q       int
		purges  []string
		entries int // what the list keeps: the inputs triggered since the oldest live insT
	}{
		{q: 2, purges: held[2], entries: 8},
		{q: 0, purges: held[0], entries: 6}, // 1 and 3 are older than the second query
		{q: 1, purges: inputsOf(2, 4, 5, 6, 7, 8), entries: 0},
	} {
		q := qs[step.q]
		got := retractRecorded(t, env, step.q, q)
		if !slices.Equal(got, step.purges) {
			t.Fatalf("retracting query %d purged %v, want %v", step.q+1, got, step.purges)
		}
		for _, input := range held[step.q] {
			if _, found := slices.BinarySearch(got, input); !found {
				t.Fatalf("retracting query %d sent no purge to %s, which holds its rewrite", step.q+1, input)
			}
		}
		if left := heldAt(env, q.Key()); len(left) != 0 {
			t.Fatalf("query %d's rewrites survive its retraction at %v", step.q+1, left)
		}
		if got := env.eng.Census()["alqt_purge_entries"].Sum; got != step.entries {
			t.Fatalf("after retracting query %d the purge list holds %d inputs, want %d", step.q+1, got, step.entries)
		}
	}
	if _, queries, rewrites := ringHolds(env); queries != 0 || rewrites != 0 {
		t.Fatalf("%d queries and %d rewrites left after every retraction", queries, rewrites)
	}
}

// rewriterTargets returns the purge targets a cut of R+B's rewriter bucket
// writes.
func rewriterTargets(t *testing.T, env *testEnv) []targetsEntry {
	t.Helper()
	for _, n := range env.net.Nodes() {
		if m := env.eng.state(n).cut(func(h id.ID) bool { return h == id.Hash("R+B") }, false); len(m.AL) == 1 {
			return m.AL[0].SentTargets
		}
	}
	t.Fatal("no node holds R+B's rewriter bucket")
	return nil
}

// targetsBytes encodes purge targets as a hand-off section writes them.
func targetsBytes(t *testing.T, es []targetsEntry) []byte {
	t.Helper()
	var w wire.Buffer
	c := wire.Encoder(&w)
	walkTargets(&c, &es)
	if err := c.Flush(&w); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}

// A move writes each query's purge targets and the next holder folds them
// back into its group's list, so the rule survives it: for unfiltered queries
// the cut writes what the per-query sets of earlier builds wrote — the inputs
// holding the query's rewrites — and a retraction after a move inside the
// process, or after a snapshot restore, purges where one before it would.
func TestPurgeListSurvivesAMove(t *testing.T) {
	cfg := Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 4}
	build := func() (*testEnv, [3]*query.Query) {
		env := newTestEnv(t, 48, cfg)
		return env, purgeFill(t, env)
	}
	still, qs := build()
	before := rewriterTargets(t, still)
	var parent []targetsEntry // what a per-query set wrote, for the unfiltered two
	for _, i := range []int{0, 2} {
		parent = append(parent, targetsEntry{Key: qs[i].Key(), Targets: heldAt(still, qs[i].Key())})
	}
	slices.SortFunc(parent, func(a, b targetsEntry) int { return strings.Compare(a.Key, b.Key) })
	var unfiltered []targetsEntry
	for _, e := range before {
		if e.Key != qs[1].Key() {
			unfiltered = append(unfiltered, e)
		}
	}
	if got, want := targetsBytes(t, unfiltered), targetsBytes(t, parent); !slices.Equal(got, want) {
		t.Fatalf("the cut writes the unfiltered queries' targets as\n%v\nper-query sets wrote\n%v", unfiltered, parent)
	}

	moved, _ := build()
	owner := moved.net.OracleSuccessor(id.Hash("R+B"))
	joiner, err := moved.net.Join(keyTaking(t, moved.net, "R+B"))
	if err != nil {
		t.Fatal(err)
	}
	moved.eng.Attach(joiner)
	if moved.net.OracleSuccessor(id.Hash("R+B")) == owner {
		t.Fatal("the join did not take R+B's rewriter over")
	}
	restoredFrom, _ := build()
	restored := snapshotInto(t, restoredFrom, nil)

	for name, env := range map[string]*testEnv{"a move": moved, "a snapshot restore": restored} {
		if got := rewriterTargets(t, env); !reflect.DeepEqual(got, before) {
			t.Fatalf("after %s the cut writes\n%v\nbefore it\n%v", name, got, before)
		}
	}
	for _, i := range []int{2, 0, 1} {
		want := retractRecorded(t, still, i, qs[i])
		for name, env := range map[string]*testEnv{"a move": moved, "a snapshot restore": restored} {
			if got := retractRecorded(t, env, i, qs[i]); !slices.Equal(got, want) {
				t.Fatalf("after %s retracting query %d purged %v, without it %v", name, i+1, got, want)
			}
		}
	}
}

// A trigger that finds its input's newest time already at or past every live
// query's insT leaves the purge list as it is, and allocates nothing doing
// so; a query that joins later raises the time on its own first trigger
// there, so its retraction still purges every input holding its rewrite.
func TestRepeatTriggerKeepsThePurgeList(t *testing.T) {
	env := newTestEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 4})
	const pair = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	early := env.subscribe(t, 0, pair)
	for i := range 3 { // S+E+1 triggered three times for the early query alone
		env.publish(t, 10+i, rTuple(env, float64(100+i), 1, 0))
	}
	late := env.subscribe(t, 1, pair)
	env.publish(t, 20, rTuple(env, 200, 1, 0))
	env.publish(t, 21, rTuple(env, 201, 2, 0))
	if got, want := heldAt(env, late.Key()), inputsOf(1, 2); !slices.Equal(got, want) {
		t.Fatalf("the late query's rewrites are held at %v, want %v", got, want)
	}

	g := &queryGroup{queries: []*query.Query{early}}
	input := []byte(vlInput("S", "E", relation.N(1)))
	g.record(input, early.InsT())
	pubT := early.InsT()
	if allocs := testing.AllocsPerRun(100, func() { pubT++; g.record(input, pubT) }); allocs != 0 && !raceEnabled {
		t.Fatalf("a repeat trigger allocated %v times", allocs)
	}
	if got := g.sent[string(input)]; got != early.InsT() {
		t.Fatalf("repeat triggers moved the input's newest time to %d, want %d", got, early.InsT())
	}

	for _, q := range []*query.Query{late, early} {
		held := heldAt(env, q.Key())
		from := 0
		if q == late {
			from = 1
		}
		got := retractRecorded(t, env, from, q)
		for _, input := range held {
			if _, found := slices.BinarySearch(got, input); !found {
				t.Fatalf("retracting %s sent no purge to %s, which holds its rewrite", q.Key(), input)
			}
		}
		if left := heldAt(env, q.Key()); len(left) != 0 {
			t.Fatalf("%s's rewrites survive its retraction at %v", q.Key(), left)
		}
	}
}

// handlers records the nodes that handled a message of kind, and keeps a copy
// of each join it delivers that carries rewrites of n queries.
type handlers struct {
	kind  string
	n     int
	at    map[*chord.Node]bool
	joins []joinMsg
}

func (h *handlers) Deliver(_, dst *chord.Node, msg chord.Message, forward func() bool) int {
	if msg.Kind() == h.kind {
		h.at[dst] = true
	}
	if j, ok := msg.(*joinMsg); ok && len(j.Rewrites) == h.n {
		h.joins = append(h.joins, joinMsg{Rewrites: slices.Clone(j.Rewrites)})
	}
	return btoi(forward())
}

// storedOf counts the rewrites of query key st stores.
func storedOf(st *nodeState, key string) int {
	st.mu.Lock()
	defer st.mu.Unlock()
	n := 0
	for _, s := range st.vl {
		if s.q != nil {
			for _, rw := range s.q.rewrites.all() {
				if rw.Orig.Key() == key {
					n++
				}
			}
		}
	}
	return n
}

// holdsAt reports whether st's bucket of input holds query key in a group,
// and its interest mark.
func holdsAt(st *nodeState, input, key string) (indexed, marked bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	b := st.alqt[input]
	if b == nil {
		return false, false
	}
	for _, g := range b.byCond.all() {
		for _, q := range g.queries {
			indexed = indexed || q.Key() == key
		}
	}
	_, marked = b.interest[key]
	return indexed, marked
}

// A process remembers a retraction once, not once a node that handled it: k
// retractions whose purges reach many evaluators leave k keys, and a node that
// handled none of them refuses a join, a query and an interest mark under a
// retracted key, while it takes the same of a live query.
func TestRetractionMemoryIsOnePerProcess(t *testing.T) {
	const (
		k      = 6
		values = 40
		sql    = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	)
	env := newTestEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyLeft})
	rec := &handlers{kind: kindUnsub, n: k + 1, at: map[*chord.Node]bool{}}
	env.net.SetInterceptor(rec)
	var gone []*query.Query
	for i := 0; i < k; i++ {
		gone = append(gone, env.subscribe(t, i, sql))
	}
	live := env.subscribe(t, k, sql) // one condition group with gone
	for v := 0; v < values; v++ {
		env.publish(t, 10+v, rTuple(env, float64(v), float64(v), 0))
	}
	if len(rec.joins) == 0 {
		t.Fatal("no join carried the whole group's rewrites")
	}
	for _, q := range gone {
		if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
			t.Fatal(err)
		}
	}
	env.net.SetInterceptor(nil)
	if len(rec.at) < values/4 {
		t.Fatalf("the retractions reached %d nodes, want purges at many evaluators", len(rec.at))
	}
	if got := env.eng.Census()["retracted"]; got != (CensusEntry{k, k}) {
		t.Fatalf("the census counts %+v retractions, want %d once for the process", got, k)
	}

	var x *chord.Node // a node that handled no retraction or purge
	for _, n := range env.nodes {
		if !rec.at[n] {
			x = n
			break
		}
	}
	if x == nil {
		t.Fatal("every node handled a retraction")
	}
	st := env.eng.state(x)
	join := rec.joins[0]
	st.HandleMessage(x, &join)
	for _, q := range []string{"S+D", "S+F"} {
		st.HandleMessage(x, interestMsg{QueryKey: gone[0].Key(), Input: q})
		st.HandleMessage(x, interestMsg{QueryKey: live.Key(), Input: q})
	}
	st.HandleMessage(x, queryMsg{Q: gone[1], Side: query.SideLeft, Attr: "A"})
	st.HandleMessage(x, queryMsg{Q: live, Side: query.SideLeft, Attr: "A"})
	for _, q := range gone {
		if n := storedOf(st, q.Key()); n != 0 {
			t.Fatalf("%s, which handled no purge, stored %d rewrites of retracted %s", x, n, q.Key())
		}
	}
	if n := storedOf(st, live.Key()); n != 1 {
		t.Fatalf("%s stored %d rewrites of the live query from the join, want 1", x, n)
	}
	for _, input := range []string{"S+D", "S+F"} {
		if _, marked := holdsAt(st, input, gone[0].Key()); marked {
			t.Fatalf("%s took an interest mark of retracted %s at %s", x, gone[0].Key(), input)
		}
		if _, marked := holdsAt(st, input, live.Key()); !marked {
			t.Fatalf("%s refused the live query's interest mark at %s", x, input)
		}
	}
	if indexed, _ := holdsAt(st, "R+A", gone[1].Key()); indexed {
		t.Fatalf("%s indexed retracted %s", x, gone[1].Key())
	}
	if indexed, _ := holdsAt(st, "R+A", live.Key()); !indexed {
		t.Fatalf("%s refused to index the live query", x)
	}
}

// A process whose only part in a retraction is a purge — the query's rewriter
// is another process's — remembers it as well: a join of the query that
// arrives behind the purge is refused, one of a live query is not.
func TestPurgeAloneTeachesItsProcess(t *testing.T) {
	const sql = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	env := newTestEnv(t, 16, Config{Algorithm: SAI, Strategy: StrategyLeft})
	rec := &handlers{kind: kindUnsub, n: 2, at: map[*chord.Node]bool{}}
	env.net.SetInterceptor(rec)
	gone, live := env.subscribe(t, 0, sql), env.subscribe(t, 1, sql)
	env.publish(t, 2, rTuple(env, 1, 7, 0))
	env.net.SetInterceptor(nil)
	if len(rec.joins) != 1 {
		t.Fatalf("%d joins carried both queries' rewrites, want 1", len(rec.joins))
	}

	other := newTestEnv(t, 16, Config{Algorithm: SAI, Strategy: StrategyLeft})
	x := other.nodes[3]
	st := other.eng.state(x)
	st.HandleMessage(x, &purgeMsg{QueryKey: gone.Key(), Input: vlInput("S", "E", relation.N(7))})
	join := rec.joins[0]
	st.HandleMessage(x, &join)
	if n := storedOf(st, gone.Key()); n != 0 {
		t.Fatalf("%s stored %d rewrites of %s behind its purge", x, n, gone.Key())
	}
	if n := storedOf(st, live.Key()); n != 1 {
		t.Fatalf("%s stored %d rewrites of the live query, want 1", x, n)
	}
}

// Retractions handled at many nodes race joins, interest marks and queries
// under the retracted keys and a live one at the other nodes of the engine:
// each arrival reads the process's memory as the handlers write it. Once all
// are done every node refuses the retracted keys and takes the live one's.
func TestRetractionsRaceArrivalsAtOtherNodes(t *testing.T) {
	const (
		k   = 6
		sql = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	)
	env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft})
	rec := &handlers{kind: kindUnsub, n: k + 1, at: map[*chord.Node]bool{}}
	env.net.SetInterceptor(rec)
	var gone []*query.Query
	for i := 0; i < k; i++ {
		gone = append(gone, env.subscribe(t, i, sql))
	}
	live := env.subscribe(t, k, sql)
	for v := 0; v < 16; v++ {
		env.publish(t, 10+v, rTuple(env, float64(v), float64(v), 0))
	}
	env.net.SetInterceptor(nil)
	if len(rec.joins) == 0 {
		t.Fatal("no join carried the whole group's rewrites")
	}
	join := rec.joins[0]

	arrive := func(n *chord.Node) {
		st := env.eng.state(n)
		j := join
		st.HandleMessage(n, &j)
		for _, q := range append(slices.Clone(gone), live) {
			st.HandleMessage(n, interestMsg{QueryKey: q.Key(), Input: "S+F"})
			st.HandleMessage(n, queryMsg{Q: q, Side: query.SideLeft, Attr: "C"})
		}
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, q := range gone {
			if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
				t.Error(err)
			}
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				arrive(env.node(12 + g*4 + i))
			}
		}()
	}
	wg.Wait()

	if got := env.eng.Census()["retracted"]; got != (CensusEntry{k, k}) {
		t.Fatalf("the census counts %+v retractions, want %d", got, k)
	}
	for _, n := range env.nodes[28:] { // no arrival reached these before
		arrive(n)
		st := env.eng.state(n)
		for _, q := range gone {
			indexed, marked := holdsAt(st, "S+F", q.Key())
			if storedOf(st, q.Key()) != 0 || indexed || marked {
				t.Fatalf("%s took an arrival of retracted %s", n, q.Key())
			}
		}
		if _, marked := holdsAt(st, "S+F", live.Key()); !marked || storedOf(st, live.Key()) != 1 {
			t.Fatalf("%s refused the live query's arrivals", n)
		}
	}
}

// A snapshot says its process's retraction memory once, in its meta, and no
// node section says it. A parent's node sections each said their node's, and
// its meta none: a restore unions the meta's with every section's.
func TestSnapshotSaysTheRetractionMemoryOnce(t *testing.T) {
	const sql = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft})
	gone, live := env.subscribe(t, 0, sql), env.subscribe(t, 1, sql)
	for v := 0; v < 8; v++ {
		env.publish(t, 2+v, rTuple(env, float64(v), float64(v), 0))
	}
	if err := env.eng.Unsubscribe(env.node(0), gone); err != nil {
		t.Fatal(err)
	}
	meta, nodes := env.eng.ExportSnapshot(nil)
	if got := meta.(snapMetaMsg).Retracted; !slices.Equal(got, []string{gone.Key()}) {
		t.Fatalf("the meta says the retractions %v, want %s", got, gone.Key())
	}
	for _, ns := range nodes {
		if got := ns.Msg.(handoffMsg).Retracted; len(got) != 0 {
			t.Fatalf("%s's section says the retractions %v", ns.Key, got)
		}
	}

	wired := func(m chord.Message) chord.Message {
		var w wire.Buffer
		if err := EncodeMessage(&w, m); err != nil {
			t.Fatal(err)
		}
		back, err := DecodeMessage(wire.NewReader(w.Bytes()), env.catalog)
		if err != nil {
			t.Fatal(err)
		}
		return back
	}
	restore := func(meta snapMetaMsg, sections map[int][]string) []string {
		t.Helper()
		moved := make([]NodeSnapshot, len(nodes))
		for i, ns := range nodes {
			hm := ns.Msg.(handoffMsg)
			hm.Retracted = sections[i]
			moved[i] = NodeSnapshot{Key: ns.Key, Msg: wired(hm)}
		}
		fresh := newTestEnv(t, len(env.nodes), env.eng.Config())
		if _, err := fresh.eng.RestoreSnapshot(wired(meta), moved); err != nil {
			t.Fatal(err)
		}
		if fresh.eng.isRetracted(live.Key()) {
			t.Fatalf("the restored engine refuses live %s", live.Key())
		}
		return fresh.eng.retractedKeys()
	}
	if got := restore(meta.(snapMetaMsg), nil); !slices.Equal(got, []string{gone.Key()}) {
		t.Fatalf("the snapshot restored the retractions %v, want %s", got, gone.Key())
	}
	parent := meta.(snapMetaMsg)
	parent.Retracted = nil
	sections := map[int][]string{0: {gone.Key()}, len(nodes) - 1: {gone.Key(), "peer9#4"}}
	if got, want := restore(parent, sections), []string{gone.Key(), "peer9#4"}; !slices.Equal(got, want) {
		t.Fatalf("a parent's snapshot restored the retractions %v, want %v", got, want)
	}
	both := meta.(snapMetaMsg)
	both.Retracted = []string{"peer8#1"}
	if got, want := restore(both, sections), []string{gone.Key(), "peer8#1", "peer9#4"}; !slices.Equal(got, want) {
		t.Fatalf("the meta and the sections restored the retractions %v, want %v", got, want)
	}
}
