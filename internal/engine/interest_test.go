package engine

import (
	"fmt"
	"math/rand"
	"os"
	"slices"
	"sort"
	"sync"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/metrics"
	"cqjoin/internal/obs"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// Demand-driven tuple indexing (DESIGN.md §5) and the retraction memory
// that keeps it, and J(i), exact: each test below fails with the mechanism it
// names taken out.

// parkKind is a chord.Interceptor that parks the deliveries of one message
// kind while armed — unacked, as a chaos delay leaves them — until release
// lets them land, and can deliver every message of the kind twice. A delay
// chosen by the test, not drawn: the races below are one-in-many under a
// seeded injector and certain here.
type parkKind struct {
	kind      string
	only      func(chord.Message) bool // of the kind, park these alone (nil: all)
	armed     int                      // how many more deliveries to park
	duplicate bool                     // deliver the kind twice instead
	onPark    func()                   // runs as a delivery is parked: what happens meanwhile
	parked    []func() bool
}

func (p *parkKind) Deliver(_, _ *chord.Node, msg chord.Message, forward func() bool) int {
	if msg.Kind() != p.kind || p.only != nil && !p.only(msg) {
		return btoi(forward())
	}
	if p.duplicate {
		return btoi(forward()) + btoi(forward())
	}
	if p.armed == 0 {
		return btoi(forward())
	}
	p.armed--
	p.parked = append(p.parked, forward)
	if p.onPark != nil {
		p.onPark()
	}
	return 0
}

func (p *parkKind) release() {
	for _, forward := range p.parked {
		forward()
	}
	p.parked = nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// forwardsOf publishes tu and returns how many vl-index messages that cost.
func forwardsOf(t *testing.T, env *testEnv, from int, tu *relation.Tuple) int64 {
	t.Helper()
	before := env.net.Traffic().Messages(kindVLIndex)
	env.publish(t, from, tu)
	return env.net.Traffic().Messages(kindVLIndex) - before
}

// ringHolds counts the interest marks, indexed queries and stored rewrites
// the whole ring holds.
func ringHolds(env *testEnv) (marks, queries, rewrites int) {
	for _, n := range env.net.Nodes() {
		st := env.eng.state(n)
		st.mu.Lock()
		for _, b := range st.alqt {
			marks += len(b.interest)
			queries += b.storedItems()
		}
		for _, s := range st.vl {
			if s.q != nil {
				rewrites += s.q.rewrites.len()
			}
		}
		st.mu.Unlock()
	}
	return marks, queries, rewrites
}

// ROADMAP J(i), open since PR 13. A rewriter records a rewrite's target under
// its lock and sends the join after releasing it, so a retraction's purge can
// reach the evaluator first; the rewrite then stored behind it answered tuples
// published long after Unsubscribe returned. The evaluator that processed the
// purge refuses it.
func TestRewriteBehindItsPurgeIsRefused(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft})
	park := &parkKind{kind: kindJoin}
	env.net.SetInterceptor(park)
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)

	park.armed = 1
	env.publish(t, 1, rTuple(env, 1, 7, 0)) // triggers q; its join is held up in the network
	if len(park.parked) != 1 {
		t.Fatalf("%d joins parked, want the one of the trigger", len(park.parked))
	}
	if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
		t.Fatal(err)
	}
	park.release() // the join lands behind the purge

	env.publish(t, 2, sTuple(env, 2, 7, 0)) // long after the ack
	if got := env.eng.Notifications(); len(got) != 0 {
		t.Fatalf("a retracted query fired on a tuple published after Unsubscribe returned: %v", contentKeys(got))
	}
	if _, _, rewrites := ringHolds(env); rewrites != 0 {
		t.Fatalf("%d rewrites of a retracted query stored", rewrites)
	}
}

// The interest mark has the same shape: a mark held up past its own
// retraction would never be cleared, and its rewriter would forward for ever.
// The rewriter that processed the retraction refuses it — and a query that
// arrives so late, likewise.
func TestMarkAndQueryBehindTheirRetractionAreRefused(t *testing.T) {
	for _, kind := range []string{kindInterest, kindQuery} {
		env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft, MaxRetries: 1})
		park := &parkKind{kind: kind, armed: 1}
		env.net.SetInterceptor(park)
		// The first copy is parked unacked; the retry gets through.
		q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
			t.Fatal(err)
		}
		park.release()

		if marks, queries, _ := ringHolds(env); marks != 0 || queries != 0 {
			t.Fatalf("%s: %d interest marks and %d copies of a retracted query held", kind, marks, queries)
		}
		if n := forwardsOf(t, env, 1, sTuple(env, 2, 7, 0)); n != 0 {
			t.Fatalf("%s: a tuple no live query reads was forwarded to the value level %d times", kind, n)
		}
		env.publish(t, 2, rTuple(env, 1, 7, 0))
		if got := env.eng.Notifications(); len(got) != 0 {
			t.Fatalf("%s: a retracted query fired: %v", kind, contentKeys(got))
		}
	}
}

// The mark is acked before the insertion time is drawn: a tuple published
// while the mark is still on its way passes a rewriter that does not forward
// yet, and must therefore be older than the query — no match with
// pubT >= insT is lost to the delay.
func TestInterestMarkIsAckedBeforeInsertionTime(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft, MaxRetries: 1})
	oracle := NewOracle()
	park := &parkKind{kind: kindInterest, armed: 1}
	park.onPark = func() { // a concurrent publisher, between the send and the ack
		oracle.AddTuple(env.publish(t, 5, sTuple(env, 1, 7, 0)))
	}
	env.net.SetInterceptor(park)
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	oracle.AddQuery(q)
	park.release() // the held-up copy lands on the mark its retry set

	oracle.AddTuple(env.publish(t, 6, sTuple(env, 2, 7, 0)))
	oracle.AddTuple(env.publish(t, 7, rTuple(env, 3, 7, 0)))
	want := oracle.ExpectedContentKeys()
	assertSetsEqual(t, SAI, want, gotContents(env))
	if len(want) != 1 {
		t.Fatalf("the oracle expects %d matches; want the one pair published after the subscribe", len(want))
	}
}

// Double indexing gives the same guarantee by the same marks. The query is at
// both rewriters only once both legs of its multisend have landed; a tuple
// with pubT >= insT that reaches a rewriter before its leg does must still get
// to the value level, where the other rewriter's rewrites probe it (DAI-Q) or
// wait for it (DAI-T) — the publisher saw to that when it indexed blind.
func TestDoubleIndexingMarksBothRewritersBeforeInsertionTime(t *testing.T) {
	for _, alg := range []Algorithm{DAIQ, DAIT} {
		env := newTestEnv(t, 32, Config{Algorithm: alg, MaxRetries: 2})
		oracle := NewOracle()
		// S's leg is held up twice; R's has landed by the second time.
		park := &parkKind{kind: kindQuery, armed: 2, only: func(m chord.Message) bool {
			return m.(queryMsg).Side == query.SideRight
		}}
		park.onPark = func() {
			if len(park.parked) < 2 {
				return
			}
			if alg == DAIT { // its rewrite waits at S.E = 7 for the S tuple
				oracle.AddTuple(env.publish(t, 4, rTuple(env, 1, 7, 0)))
			}
			oracle.AddTuple(env.publish(t, 5, sTuple(env, 1, 7, 0)))
		}
		env.net.SetInterceptor(park)
		oracle.AddQuery(env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`))
		park.release()

		if alg == DAIQ { // its rewrite probes S.E = 7 for the S tuple
			oracle.AddTuple(env.publish(t, 6, rTuple(env, 2, 7, 0)))
		}
		oracle.AddTuple(env.publish(t, 7, sTuple(env, 2, 7, 0)))
		want := oracle.ExpectedContentKeys()
		assertSetsEqual(t, alg, want, gotContents(env))
		if len(want) != 2 {
			t.Fatalf("%s: the oracle expects %d matches, want 2", alg, len(want))
		}
	}
}

// Interest is a set of query keys: a mark delivered twice counts once, so one
// retraction clears it.
func TestDuplicatedInterestMarkCountsOnce(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft})
	env.net.SetInterceptor(&parkKind{kind: kindInterest, duplicate: true})
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	if marks, _, _ := ringHolds(env); marks != 1 {
		t.Fatalf("%d interest marks after one subscribe delivered twice, want 1", marks)
	}
	if n := forwardsOf(t, env, 1, sTuple(env, 1, 7, 0)); n != 1 {
		t.Fatalf("a marked rewriter forwarded %d times, want once", n)
	}
	if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
		t.Fatal(err)
	}
	if n := forwardsOf(t, env, 1, sTuple(env, 2, 7, 0)); n != 0 {
		t.Fatalf("forwarded %d times after the only interested query was retracted", n)
	}
}

// Under attribute-level replication a tuple meets the replica its value picks,
// so every replica of the marked attribute holds the mark and forwards.
func TestEveryReplicaHoldsTheMarkAndForwards(t *testing.T) {
	const k = 3
	env := newTestEnv(t, 48, Config{Algorithm: SAI, Strategy: StrategyLeft, ReplicationFactor: k})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	if marks, _, _ := ringHolds(env); marks != k {
		t.Fatalf("%d interest marks, want one on each of %d replicas", marks, k)
	}
	seen := map[int]bool{}
	values := 0
	for v := 0; len(seen) < k; v++ {
		seen[env.eng.replicaOf(relation.N(float64(v)))] = true
		if n := forwardsOf(t, env, v, sTuple(env, float64(v), float64(v), 0)); n != 1 {
			t.Fatalf("replica %d forwarded S.E = %d %d times, want once", env.eng.replicaOf(relation.N(float64(v))), v, n)
		}
		values++
	}
	for v := 0; v < values; v++ {
		env.publish(t, v+1, rTuple(env, 0, float64(v), 0))
	}
	if got := len(env.eng.Notifications()); got != values {
		t.Fatalf("%d notifications for %d joining pairs spread over %d replicas", got, values, k)
	}
}

// The forward lasts as long as some live query reads the value level: the
// retraction of the last one stops it, a new subscription starts it again.
func TestForwardFollowsTheInterestedQueries(t *testing.T) {
	const sql = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft})
	if n := forwardsOf(t, env, 1, sTuple(env, 0, 7, 0)); n != 0 {
		t.Fatalf("forwarded %d times with no query at all", n)
	}
	q1, q2 := env.subscribe(t, 0, sql), env.subscribe(t, 1, sql)
	if n := forwardsOf(t, env, 1, sTuple(env, 1, 7, 0)); n != 1 {
		t.Fatalf("S.E forwarded %d times under two interested queries, want once", n)
	}
	if n := forwardsOf(t, env, 1, rTuple(env, 1, 8, 0)); n != 0 {
		t.Fatalf("R, whose value level no rewrite names, was forwarded %d times", n)
	}
	if err := env.eng.Unsubscribe(env.node(0), q1); err != nil {
		t.Fatal(err)
	}
	if n := forwardsOf(t, env, 1, sTuple(env, 2, 7, 0)); n != 1 {
		t.Fatalf("forwarded %d times with one interested query left, want once", n)
	}
	if err := env.eng.Unsubscribe(env.node(1), q2); err != nil {
		t.Fatal(err)
	}
	if n := forwardsOf(t, env, 1, sTuple(env, 3, 7, 0)); n != 0 {
		t.Fatalf("forwarded %d times after the last interested query was retracted", n)
	}
	env.eng.ResetNotifications()
	env.subscribe(t, 2, sql)
	if n := forwardsOf(t, env, 1, sTuple(env, 4, 7, 0)); n != 1 {
		t.Fatalf("forwarded %d times after a new subscription, want once", n)
	}
	env.publish(t, 3, rTuple(env, 9, 7, 0))
	if got := contentKeys(env.eng.Notifications()); len(got) != 1 {
		t.Fatalf("the new query matched %v; want the one S tuple published after it", got)
	}
}

// Under double indexing the query marks both rewriters — each one's rewrites
// read the other's value level — and the retraction that takes the query from
// a rewriter takes its mark by the same message.
func TestDoubleIndexingForwardsOnBothSidesWhileSubscribed(t *testing.T) {
	for _, alg := range []Algorithm{DAIQ, DAIT} {
		env := newTestEnv(t, 32, Config{Algorithm: alg})
		q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		if marks, queries, _ := ringHolds(env); marks != 2 || queries != 2 {
			t.Fatalf("%s: %d marks and %d copies of the query, want 2 and 2", alg, marks, queries)
		}
		if r, s := forwardsOf(t, env, 1, rTuple(env, 1, 7, 0)), forwardsOf(t, env, 2, sTuple(env, 1, 7, 0)); r != 1 || s != 1 {
			t.Fatalf("%s: R forwarded %d times and S %d, want once each", alg, r, s)
		}
		if at := env.eng.subs[q.Key()].inputs; len(at) != 2 {
			t.Fatalf("%s: the subscriber retracts at %v, want each rewriter once", alg, at)
		}
		if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
			t.Fatal(err)
		}
		if marks, queries, _ := ringHolds(env); marks != 0 || queries != 0 {
			t.Fatalf("%s: %d marks and %d copies of the query left behind", alg, marks, queries)
		}
		if r, s := forwardsOf(t, env, 1, rTuple(env, 2, 7, 0)), forwardsOf(t, env, 2, sTuple(env, 2, 7, 0)); r != 0 || s != 0 {
			t.Fatalf("%s: R forwarded %d times and S %d after the retraction", alg, r, s)
		}
	}
}

// A chain marks the rewriter of every later stage — it is where the stage's
// tuples must be stored to meet the partial matches — under SAI and under
// DAI-Q: the same matches as blind indexing delivers, for fewer messages.
func TestChainMarksEveryLaterStage(t *testing.T) {
	for _, alg := range []Algorithm{SAI, DAIQ} {
		run := func(blind bool) ([]string, int64) {
			env := newMultiEnv(t, 48, Config{Algorithm: alg, Seed: 3, BlindIndexing: blind})
			env.subscribeChain(t, 0, `SELECT A.z, B.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`)
			env.subscribeChain(t, 1, `SELECT A.z, C.z FROM A, B, C WHERE A.y = B.y AND B.x = C.x`)
			rng := rand.New(rand.NewSource(17))
			schemas := []*relation.Schema{env.a, env.b, env.c, env.d}
			for i := 0; i < 120; i++ {
				env.publish(t, rng.Intn(48), env.tuple(schemas[rng.Intn(4)],
					float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(3))))
			}
			var keys []string
			for _, n := range env.eng.Notifications() {
				keys = append(keys, deliveryKey(n))
			}
			sort.Strings(keys)
			return keys, env.net.Traffic().Messages(kindVLIndex)
		}
		want, blindMsgs := run(true)
		got, msgs := run(false)
		if len(want) == 0 || !slices.Equal(got, want) {
			t.Fatalf("%s: %d chain matches on demand, %d blind: %v", alg, len(got), len(want), diffStrings(want, got))
		}
		// Two chains over A, B, C: each marks two of the nine attributes
		// tuples of those relations carry, D's three carry nothing.
		if msgs == 0 || 2*msgs > blindMsgs {
			t.Fatalf("%s: %d vl-index messages on demand, %d blind: want at most half", alg, msgs, blindMsgs)
		}
	}
}

// indexingOutcome is what one run of indexingStream cost and delivered.
type indexingOutcome struct {
	keys                []string // deliveryKey of every notification, sorted
	vlMsgs, hops, bytes int64    // the publications' traffic, all kinds
	indexHops           int64    // of which al-index and vl-index
	forwards, idle      int64    // engine.vl_forwards, engine.al_index_idle
	silent              int64    // engine.hints{al.silent}: al-index messages publishers skipped
	marked, queried     int      // attributes with a mark; with a mark or a group
}

// indexingStream runs the benchmark's shape on a fresh SAI ring: eight
// relation pairs of attrs attributes, four subscribers on each of two of
// them (A and B) with the index side drawn, then pubs seeded publications
// whose keys come from the benchmark's sliding window (a new id with every
// publication of a pair, each drawing from the newest 32). Publishers are drawn
// per publication; homed, every relation is published from one node of its
// own, so all but its first publication repeat a (node, relation).
func indexingStream(t *testing.T, nodeCount, attrs, pubs int, blind, homed bool) indexingOutcome {
	t.Helper()
	const pairs, subsPerCond = 8, 4
	names := []string{"A", "B"}
	for len(names) < attrs {
		names = append(names, fmt.Sprintf("C%d", len(names)))
	}
	var schemas []*relation.Schema
	for p := 0; p < pairs; p++ {
		for _, side := range []string{"R", "S"} {
			schemas = append(schemas, relation.MustSchema(fmt.Sprintf("%s%d", side, p), names...))
		}
	}
	catalog := relation.MustCatalog(schemas...)
	reg := obs.NewRegistry()
	net := chord.New(chord.Config{})
	nodes := net.AddNodes("peer", nodeCount)
	eng := New(net, catalog, Config{Algorithm: SAI, Seed: 1, BlindIndexing: blind, Obs: reg})
	rng := rand.New(rand.NewSource(1))
	for p := 0; p < pairs; p++ {
		for _, attr := range names[:2] {
			for k := 0; k < subsPerCond; k++ {
				sql := fmt.Sprintf("SELECT R%d.A, S%d.B FROM R%d, S%d WHERE R%d.%s = S%d.%s", p, p, p, p, p, attr, p, attr)
				if _, err := eng.Subscribe(nodes[rng.Intn(len(nodes))], query.MustParse(catalog, sql)); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	var out indexingOutcome
	for _, n := range nodes {
		st := eng.state(n)
		st.mu.Lock()
		for _, b := range st.alqt {
			if len(b.interest) > 0 {
				out.marked++
			}
			if len(b.interest) > 0 || len(b.byCond.all()) > 0 {
				out.queried++
			}
		}
		st.mu.Unlock()
	}
	net.Traffic().Reset()
	reg.Counter("engine.vl_forwards").Reset()
	reg.Counter("engine.al_index_idle").Reset()
	reg.CounterVec("engine.hints").Reset()
	pubsOfPair := make([]int, pairs)
	key := func(p int) relation.Value {
		span := min(pubsOfPair[p]+1, 32)
		return relation.S(fmt.Sprintf("k%05d", pubsOfPair[p]-rng.Intn(span)))
	}
	for i := 0; i < pubs; i++ {
		p := rng.Intn(pairs)
		values := []relation.Value{key(p), key(p)}
		for len(values) < attrs {
			values = append(values, relation.S(fmt.Sprintf("c%d", rng.Intn(16))))
		}
		pubsOfPair[p]++
		from, rel := rng.Intn(len(nodes)), 2*p+rng.Intn(2)
		if homed {
			from = rel * len(nodes) / len(schemas)
		}
		if _, err := eng.Publish(nodes[from], relation.MustTuple(schemas[rel], values...)); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range eng.Notifications() {
		out.keys = append(out.keys, deliveryKey(n))
	}
	sort.Strings(out.keys)
	tr := net.Traffic()
	out.vlMsgs, out.hops, out.bytes = tr.Messages(kindVLIndex), tr.TotalHops(), tr.TotalBytes()
	out.indexHops = tr.Hops(kindALIndex) + tr.Hops(kindVLIndex)
	out.forwards = reg.Counter("engine.vl_forwards").Value()
	out.idle = reg.Counter("engine.al_index_idle").Value()
	out.silent = reg.CounterVec("engine.hints").Value("al.silent")
	return out
}

// The gain, pinned where tier-1 sees it, on the benchmark's shape: a
// 2048-node SAI ring, relations of four attributes, queries on two of them —
// the blind run of the same stream, in the same test, is the reference. The
// same notifications for at most two vl-index messages a publication where
// blind sends four, 0.94 of the hops and 0.89 of the bytes (0.92 and 0.86 on
// sim-steady). The registry's counters are the measurement ROADMAP P asked
// for: a publication's forwards (2 × 15/16 expected — an attribute stays
// unmarked only when all four of its condition's subscribers drew the same
// side) and its idle al-index deliveries, with those its publisher skipped
// exactly the two attributes no query names.
func TestDemandDrivenIndexingGain(t *testing.T) {
	pubs := 2000
	if testing.Short() {
		pubs = 500
	}
	blind, demand := indexingStream(t, 2048, 4, pubs, true, false), indexingStream(t, 2048, 4, pubs, false, false)
	if len(blind.keys) == 0 || !slices.Equal(demand.keys, blind.keys) {
		t.Fatalf("%d notifications on demand, %d blind: %v", len(demand.keys), len(blind.keys), diffStrings(blind.keys, demand.keys))
	}
	per := func(n int64) float64 { return float64(n) / float64(pubs) }
	t.Logf("per publication, blind -> on demand: vl-index %.3f -> %.3f, hops %.2f -> %.2f, bytes %.0f -> %.0f; engine.vl_forwards %.3f, engine.al_index_idle %.3f, engine.hints{al.silent} %.3f (%d of %d queried attributes marked)",
		per(blind.vlMsgs), per(demand.vlMsgs), per(blind.hops), per(demand.hops), per(blind.bytes), per(demand.bytes),
		per(demand.forwards), per(demand.idle), per(demand.silent), demand.marked, demand.queried)
	if blind.vlMsgs != int64(4*pubs) || blind.forwards != 0 {
		t.Errorf("blind: %d vl-index messages and %d forwards over %d publications, want 4 each and none", blind.vlMsgs, blind.forwards, pubs)
	}
	if demand.vlMsgs > int64(2*pubs) || demand.vlMsgs != demand.forwards {
		t.Errorf("on demand: %d vl-index messages, %d forwards over %d publications; want at most 2 each, every one a forward", demand.vlMsgs, demand.forwards, pubs)
	}
	if demand.idle+demand.silent != int64(2*pubs) || demand.queried != 32 {
		t.Errorf("on demand: %d idle al-index deliveries and %d skipped over %d publications, %d attributes with a group or a mark; want two of either on every one, A and B never", demand.idle, demand.silent, pubs, demand.queried)
	}
	if demand.marked == 32 || demand.marked < 24 {
		t.Errorf("%d of 32 queried attributes marked: the draw should leave a few, and only a few, unmarked", demand.marked)
	}
	if r := float64(demand.hops) / float64(blind.hops); r > 0.94 {
		t.Errorf("on demand costs %.3f of blind's hops, want at most 0.94", r)
	}
	if r := float64(demand.bytes) / float64(blind.bytes); r > 0.89 {
		t.Errorf("on demand costs %.3f of blind's bytes, want at most 0.89", r)
	}
}

// The publisher's memory, pinned where tier-1 sees it: a node's first
// publication of a relation costs the four-target walk (TestMultisendWalkCost's
// figure for the ring), its second one hinted hop an attribute with nothing
// handed back — a publisher that owns one of the identifiers is charged that hop
// too, as DirectSend charges a node sending to itself. A join that takes an
// identifier costs the next publication one hand-back, and the one after
// nothing: the publisher remembered who took delivery. The rate probes keep
// every rewriter reading its tuples, so none is ever silent here.
func TestRepeatPublicationGoesHinted(t *testing.T) {
	for size, walk := range map[int]float64{256: 10.37, 2048: 16.25} {
		var schemas []*relation.Schema
		for i := 0; i < alHintSlots; i++ {
			schemas = append(schemas, relation.MustSchema(fmt.Sprintf("P%d", i), "Id", "A", "B", "C"))
		}
		reg := obs.NewRegistry()
		net := chord.New(chord.Config{})
		nodes := net.AddNodes("peer", size)
		eng := New(net, relation.MustCatalog(schemas...), Config{Algorithm: SAI, Strategy: StrategyMinRate, Seed: 1, Obs: reg})
		tr, hints := net.Traffic(), reg.CounterVec("engine.hints")
		round := func(n int) float64 {
			tr.Reset()
			for i, node := range nodes {
				for _, schema := range schemas {
					if _, err := eng.Publish(node, relation.MustTuple(schema, relation.N(float64(n)), relation.N(float64(i)), relation.N(1), relation.N(2))); err != nil {
						t.Fatal(err)
					}
				}
			}
			if got, want := tr.Messages(kindALIndex), int64(4*size*len(schemas)); got != want || tr.TotalMessages() != want {
				t.Fatalf("%d nodes, round %d: %d al-index messages of %d in all, want %d and nothing else", size, n, got, tr.TotalMessages(), want)
			}
			return float64(tr.TotalHops()) / float64(size*len(schemas))
		}
		walked := 0
		for _, node := range nodes {
			for _, schema := range schemas {
				var batch []chord.Deliverable
				for i := 0; i < schema.Arity(); i++ {
					batch = append(batch, chord.Deliverable{Target: id.Hash(alInput(schema.Name(), schema.Attr(i), 0)), Msg: probeMsg{}})
				}
				_, hops, err := node.Multisend(batch, nil)
				if err != nil {
					t.Fatal(err)
				}
				walked += hops
			}
		}
		if first := round(1); first != float64(walked)/float64(size*len(schemas)) || first < 0.9*walk || first > 1.1*walk {
			t.Errorf("%d nodes: a first publication costs %.2f hops, want the walk to its four identifiers: %.2f here, %.2f over random ones",
				size, first, float64(walked)/float64(size*len(schemas)), walk)
		}
		t.Logf("%d nodes: %.2f hops a first publication", size, float64(walked)/float64(size*len(schemas)))
		if second := round(2); second != 4 || net.Handbacks() != 0 {
			t.Errorf("%d nodes: a second publication costs %.2f hops with %d hand-backs, want 4 and none", size, second, net.Handbacks())
		}
		pubs := int64(size * len(schemas))
		if hints.Value("al.miss") != pubs || hints.Value("al.hit") != pubs || hints.Total() != 2*pubs {
			t.Errorf("%d nodes: engine.hints = %v, want %d al.miss, as many al.hit and nothing else", size, hints.Snapshot(), pubs)
		}

		// A joiner placed on P0.A's identifier takes it from its owner.
		target := id.Hash(alInput("P0", "A", 0))
		joiner, err := net.JoinAt("joiner", target)
		if err != nil {
			t.Fatal(err)
		}
		eng.Attach(joiner)
		for n, want := range []int64{5, 4} {
			tr.Reset()
			if _, err := eng.Publish(nodes[7], relation.MustTuple(schemas[0], relation.N(float64(3+n)), relation.N(7), relation.N(1), relation.N(2))); err != nil {
				t.Fatal(err)
			}
			if tr.TotalHops() != want || net.Handbacks() != 1 || eng.state(joiner).load.Filtering(metrics.Rewriter) != int64(1+n) {
				t.Errorf("%d nodes, publication %d after the join: %d hops, %d hand-backs in all, %d deliveries at the joiner; want %d, 1, %d",
					size, 1+n, tr.TotalHops(), net.Handbacks(), eng.state(joiner).load.Filtering(metrics.Rewriter), want, 1+n)
			}
		}
		if hints.Value("al.stale") != 1 || hints.Value("al.reset") != 0 {
			t.Errorf("%d nodes: engine.hints = %v, want one al.stale and no al.reset", size, hints.Snapshot())
		}
	}
}

// The publisher's memory is bounded: a relation past its slots claims the
// oldest, counted, and the relation that lost it walks again. The rate probes
// keep every rewriter reading, so no attribute goes silent.
func TestPublisherMemoryIsBounded(t *testing.T) {
	var schemas []*relation.Schema
	for i := 0; i <= alHintSlots; i++ {
		schemas = append(schemas, relation.MustSchema(fmt.Sprintf("P%d", i), "Id", "A"))
	}
	reg := obs.NewRegistry()
	net := chord.New(chord.Config{})
	nodes := net.AddNodes("peer", 64)
	eng := New(net, relation.MustCatalog(schemas...), Config{Algorithm: DAIV, Strategy: StrategyMinRate, ReplicationFactor: 3, Seed: 1, Obs: reg})
	hints := reg.CounterVec("engine.hints")
	publish := func(schema *relation.Schema, a float64) int64 {
		before := net.Traffic().TotalHops()
		if _, err := eng.Publish(nodes[3], relation.MustTuple(schema, relation.N(1), relation.N(a))); err != nil {
			t.Fatal(err)
		}
		return net.Traffic().TotalHops() - before
	}
	for _, schema := range schemas[:alHintSlots] {
		publish(schema, 1)
		if hops := publish(schema, 1); hops != 2 {
			t.Fatalf("%s: its second publication cost %d hops, want 2", schema.Name(), hops)
		}
	}
	if hints.Value("al.reset") != 0 {
		t.Fatalf("engine.hints = %v: a reset with no more relations than slots", hints.Snapshot())
	}
	// Another value may fall to another replica, whose owner is not yet known:
	// the batch walks once for each of the other two.
	for a := 2.0; a < 12; a++ {
		publish(schemas[1], a)
	}
	if got := hints.Value("al.miss"); got != alHintSlots+2 || publish(schemas[1], 11) != 2 {
		t.Fatalf("engine.hints = %v: want the replicas of one attribute remembered apart, each learned by one walk", hints.Snapshot())
	}
	publish(schemas[alHintSlots], 1)
	if hints.Value("al.reset") != 1 {
		t.Fatalf("engine.hints = %v, want one al.reset", hints.Snapshot())
	}
	misses := hints.Value("al.miss")
	if hops := publish(schemas[0], 1); hops <= 2 || hints.Value("al.miss") != misses+1 {
		t.Fatalf("the evicted relation's next publication cost %d hops and engine.hints = %v, want a walk and a miss", hops, hints.Snapshot())
	}
}

// Two clients may publish from one node at once (the daemon serves each
// connection on its own goroutine): the publisher's memory is read and learned
// under the node's lock, never across a send. Run with -race; more relations
// than slots keep claims and evictions in the mix.
func TestConcurrentPublishersShareOneMemory(t *testing.T) {
	var schemas []*relation.Schema
	for i := 0; i < alHintSlots+4; i++ {
		schemas = append(schemas, relation.MustSchema(fmt.Sprintf("P%d", i), "Id", "A"))
	}
	catalog := relation.MustCatalog(schemas...)
	net := chord.New(chord.Config{})
	nodes := net.AddNodes("peer", 32)
	eng := New(net, catalog, Config{Algorithm: SAI, Seed: 1})
	if _, err := eng.Subscribe(nodes[1], query.MustParse(catalog, `SELECT P0.Id, P1.Id FROM P0, P1 WHERE P0.A = P1.A`)); err != nil {
		t.Fatal(err)
	}
	const clients, each = 4, 150
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				schema := schemas[(c+i)%len(schemas)]
				if _, err := eng.Publish(nodes[5], relation.MustTuple(schema, relation.N(float64(c*each+i)), relation.N(float64(i%3)))); err != nil {
					t.Error(err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	perValue := func(name string) (n [3]int) {
		for c := 0; c < clients; c++ {
			for i := 0; i < each; i++ {
				if schemas[(c+i)%len(schemas)].Name() == name {
					n[i%3]++
				}
			}
		}
		return n
	}
	want, p0, p1 := 0, perValue("P0"), perValue("P1")
	for v := range p0 {
		want += p0[v] * p1[v]
	}
	if got := eng.NotificationCount(); got != want || want == 0 {
		t.Fatalf("%d notifications, want %d: every P0 tuple with every P1 tuple of its value", got, want)
	}
}

// EXPERIMENTS.md X4.2: what indexing costs by relation width when two
// attributes carry queries. Blind, a tuple's index traffic grows with all 2h
// identifiers; on demand the value-level half stays what the queries read, so
// the saving grows with h — from a loss at h = 2, where every attribute is
// queried and two lone forwards cost more hops than the two targets they
// take off a four-target walk (TestMultisendWalkCost). The third run is the
// second publication from the same node: every relation published from a node
// of its own, so all but 16 tuples go hinted, h hops for the walk whatever the
// ring's size. CI scale here; X42_SCALE=paper (set by whoever regenerates the
// EXPERIMENTS.md row) runs the thesis's 10^4 nodes.
func TestX42IndexTrafficByArity(t *testing.T) {
	nodes, pubs := 256, 400
	if os.Getenv("X42_SCALE") == "paper" {
		nodes, pubs = 10000, 4000
	}
	lastSaving := -1.0
	for _, h := range []int{2, 4, 8} {
		blind, demand := indexingStream(t, nodes, h, pubs, true, false), indexingStream(t, nodes, h, pubs, false, false)
		if !slices.Equal(demand.keys, blind.keys) {
			t.Fatalf("h=%d: %d notifications on demand, %d blind", h, len(demand.keys), len(blind.keys))
		}
		per := func(n int64) float64 { return float64(n) / float64(pubs) }
		saving := 1 - float64(demand.hops)/float64(blind.hops)
		t.Logf("h=%d, %d nodes: vl-index msgs/tuple %.2f -> %.2f, index hops/tuple %.1f -> %.1f, hops/tuple %.1f -> %.1f (%+.1f%%), bytes/tuple %.0f -> %.0f (%+.1f%%)",
			h, nodes, per(blind.vlMsgs), per(demand.vlMsgs), per(blind.indexHops), per(demand.indexHops),
			per(blind.hops), per(demand.hops), -100*saving, per(blind.bytes), per(demand.bytes), 100*(float64(demand.bytes)/float64(blind.bytes)-1))
		if blind.vlMsgs != int64(h*pubs) || demand.vlMsgs > int64(2*pubs) {
			t.Errorf("h=%d: %d vl-index messages blind, %d on demand over %d tuples; want h each, and at most 2", h, blind.vlMsgs, demand.vlMsgs, pubs)
		}
		if demand.idle+demand.silent != int64((h-2)*pubs) {
			t.Errorf("h=%d: %d idle al-index deliveries and %d skipped over %d tuples, want the %d unqueried attributes of each", h, demand.idle, demand.silent, pubs, h-2)
		}
		if saving <= lastSaving {
			t.Errorf("h=%d: on demand saves %.3f of blind's hops, no more than the narrower relation's %.3f", h, saving, lastSaving)
		}
		lastSaving = saving
		homed := indexingStream(t, nodes, h, pubs, false, true)
		if !slices.Equal(homed.keys, blind.keys) {
			t.Fatalf("h=%d: %d notifications from repeat publishers, %d blind", h, len(homed.keys), len(blind.keys))
		}
		t.Logf("h=%d, %d nodes, repeat publishers: index hops/tuple %.1f, hops/tuple %.1f (%+.1f%% of blind), bytes/tuple %.0f (%+.1f%%)",
			h, nodes, per(homed.indexHops), per(homed.hops), 100*(float64(homed.hops)/float64(blind.hops)-1), per(homed.bytes), 100*(float64(homed.bytes)/float64(blind.bytes)-1))
		if homed.hops >= demand.hops || homed.hops >= blind.hops {
			t.Errorf("h=%d: %d hops from repeat publishers, %d from drawn ones, %d blind: want fewer than either", h, homed.hops, demand.hops, blind.hops)
		}
	}
}

// Marks are a node's state like its query groups, and the retraction memory
// its process's: exported, sent over the wire and merged on the new owner, a
// rewriter goes on forwarding for the query still live and the evaluator goes
// on refusing the rewrite of the one retracted — and after a ring split by a
// join, the joiner, which TransferKeys handed the marks, refuses it too.
func TestMarksAndRetractionMemoryMoveWithTheNode(t *testing.T) {
	const sql = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	for _, move := range []string{"hand-off", "join"} {
		env := newTestEnv(t, 32, Config{Algorithm: SAI, Strategy: StrategyLeft})
		park := &parkKind{kind: kindJoin}
		env.net.SetInterceptor(park)
		gone := env.subscribe(t, 0, sql+` AND R.C = 1`)
		env.subscribe(t, 1, sql+` AND R.C = 2`)
		park.armed = 1
		env.publish(t, 2, rTuple(env, 1, 7, 1)) // triggers gone; its join is held up
		if err := env.eng.Unsubscribe(env.node(0), gone); err != nil {
			t.Fatal(err)
		}

		switch move {
		case "hand-off":
			// Every node's state leaves, a stray tuple finds the rewriters
			// empty-handed (and leaves empty buckets behind), and the state
			// comes back over the wire to merge into those.
			parcels := map[*chord.Node]chord.Message{}
			for _, node := range env.nodes {
				msg, ok := env.eng.ExportHandoff(node)
				if !ok {
					continue
				}
				size := MessageSize(msg)
				var w wire.Buffer
				if err := EncodeMessage(&w, msg); err != nil || w.Len() != size {
					t.Fatalf("hand-off of %s: %d bytes encoded, Size() = %d (%v)", node, w.Len(), size, err)
				}
				decoded, err := DecodeMessage(wire.NewReader(w.Bytes()), env.catalog)
				if err != nil {
					t.Fatal(err)
				}
				parcels[node] = decoded
			}
			if n := forwardsOf(t, env, 3, sTuple(env, 0, 99, 0)); n != 0 {
				t.Fatalf("a rewriter whose state has left forwarded %d times", n)
			}
			for _, node := range env.nodes {
				if msg := parcels[node]; msg != nil {
					env.eng.state(node).HandleMessage(node, msg)
				}
			}
		case "join":
			// A joiner placed exactly on each identifier takes it over.
			for i, input := range []string{"S+E", vlInput("S", "E", relation.N(7))} {
				joiner, err := env.net.JoinAt(fmt.Sprintf("joiner%d", i), id.Hash(input))
				if err != nil {
					t.Fatal(err)
				}
				if owner := env.net.OracleSuccessor(id.Hash(input)); owner != joiner {
					t.Fatalf("%s took over %s, not the joiner", owner, input)
				}
			}
		}
		if marks, queries, _ := ringHolds(env); marks != 1 || queries != 1 {
			t.Fatalf("%s: %d marks and %d queries after the move, want the live query's one of each", move, marks, queries)
		}
		park.release() // the join of the retracted query lands on the new owner
		if n := forwardsOf(t, env, 3, sTuple(env, 2, 7, 0)); n != 1 {
			t.Fatalf("%s: the moved rewriter forwarded %d times, want once", move, n)
		}
		env.publish(t, 4, rTuple(env, 3, 7, 2))
		if got := contentKeys(env.eng.Notifications()); len(got) != 1 {
			t.Fatalf("%s: %v delivered; want the live query's one match and none of the retracted query's", move, got)
		}
	}
}
