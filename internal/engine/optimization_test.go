package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"cqjoin/internal/id"
	"cqjoin/internal/metrics"
	"cqjoin/internal/obs"
	"cqjoin/internal/relation"
)

// --- JFRT (Section 4.7.1) -------------------------------------------------

func TestJFRTReducesJoinTraffic(t *testing.T) {
	run := func(useJFRT bool) int64 {
		env := newTestEnv(t, 256, Config{Algorithm: SAI, UseJFRT: useJFRT, Strategy: StrategyLeft})
		env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		// Repeatedly trigger with the same join value: the evaluator is the
		// same every time, so the JFRT caches it after the first lookup.
		for i := 0; i < 50; i++ {
			env.publish(t, i, rTuple(env, float64(i), 7, 0))
		}
		return env.net.Traffic().Hops(kindJoin)
	}
	withJFRT := run(true)
	without := run(false)
	if withJFRT >= without {
		t.Fatalf("JFRT hops %d >= plain hops %d", withJFRT, without)
	}
	// After the first lookup each reindexing is one direct hop, so traffic
	// should approach 1 hop per trigger.
	if withJFRT > 60 {
		t.Fatalf("JFRT hops %d, expected close to 50 (one per trigger)", withJFRT)
	}
}

// The JFRT's effect reads off engine.hints' jfrt.* counters and the census's
// jfrt_entries.
func TestJFRTStats(t *testing.T) {
	reg := obs.NewRegistry()
	env := newTestEnv(t, 64, Config{Algorithm: SAI, UseJFRT: true, Strategy: StrategyLeft, Obs: reg})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	for i := 0; i < 10; i++ {
		env.publish(t, i, rTuple(env, float64(i), 7, 0))
	}
	hints := reg.CounterVec("engine.hints")
	hits, misses, entries := hints.Value("jfrt.hit"), hints.Value("jfrt.miss"), env.eng.Census()["jfrt_entries"].Sum
	if misses == 0 || hits == 0 {
		t.Fatalf("hits=%d misses=%d, both must be positive", hits, misses)
	}
	if hits != 9 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 9/1 for one recurring evaluator", hits, misses)
	}
	if entries != 1 {
		t.Fatalf("entries=%d, want 1", entries)
	}
}

// A rewriter's table is bounded by jfrtMax: full, it restarts, counted.
func TestJFRTIsBounded(t *testing.T) {
	c, resets := new(jfrtCache), obs.NewRegistry().CounterVec("engine.hints")
	for i := 0; i <= jfrtMax; i++ {
		c.store(id.FromUint64(uint64(i)), nil, resets)
	}
	if entries := c.len(); entries != 1 || resets.Value("jfrt.reset") != 1 {
		t.Fatalf("%d entries and %d resets after jfrtMax+1 stores, want 1 and 1", entries, resets.Value("jfrt.reset"))
	}
}

func TestJFRTInvalidatesDeadEvaluator(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI, UseJFRT: true, Strategy: StrategyLeft})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 1, rTuple(env, 1, 7, 0))

	// Find and crash the evaluator the JFRT learned.
	evaluator := env.net.OracleSuccessor(id.Hash(vlInput("S", "E", relation.N(7))))
	env.net.Fail(evaluator)
	env.net.RepairAll()

	// The next trigger must route to the new responsible node, not the
	// dead cache entry, and matching must keep working.
	env.publish(t, 2, rTuple(env, 2, 7, 0))
	env.publish(t, 3, sTuple(env, 9, 7, 0))
	got := env.eng.Notifications()
	// The rewritten query stored on the failed node is lost (best-effort
	// semantics), but the post-failure rewrite (R.A=2) must match.
	found := false
	for _, n := range got {
		if n.Values[0].Equal(relation.N(2)) {
			found = true
		}
	}
	if !found {
		t.Fatalf("post-failure rewrite did not match: %v", got)
	}
}

// --- DAI-T's reindex-once optimization (Section 4.4.3) ---------------------

func TestDAITReindexesOnce(t *testing.T) {
	countJoins := func(alg Algorithm) int64 {
		env := newTestEnv(t, 64, Config{Algorithm: alg})
		env.subscribe(t, 0, `SELECT S.D FROM R, S WHERE R.B = S.E`)
		// Many R tuples with the same join value AND same select values
		// (select references only S): identical rewritten keys.
		for i := 0; i < 30; i++ {
			env.publish(t, i, rTuple(env, 0, 7, 0))
		}
		return env.net.Traffic().Messages(kindJoin)
	}
	dait := countJoins(DAIT)
	daiq := countJoins(DAIQ)
	if dait != 1 {
		t.Fatalf("DAI-T sent %d join messages, want exactly 1", dait)
	}
	if daiq != 30 {
		t.Fatalf("DAI-Q sent %d join messages, want 30", daiq)
	}
}

// --- Query grouping (Section 4.3.5) ----------------------------------------

func TestGroupedQueriesShareJoinMessages(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyLeft})
	// Five queries with the same join condition but different selects.
	for i := 0; i < 5; i++ {
		env.subscribe(t, i, fmt.Sprintf(`SELECT R.A, S.D FROM R, S WHERE R.B = S.E AND S.F >= %d`, 0))
	}
	env.net.Traffic().Reset()
	env.publish(t, 9, rTuple(env, 1, 7, 0))
	// One tuple triggers all five queries, which share one evaluator:
	// exactly one join message must leave the rewriter.
	if got := env.net.Traffic().Messages(kindJoin); got != 1 {
		t.Fatalf("join messages = %d, want 1 for a grouped condition", got)
	}
	env.publish(t, 10, sTuple(env, 3, 7, 9))
	if got := len(env.eng.Notifications()); got != 5 {
		t.Fatalf("notifications = %d, want 5", got)
	}
}

// --- Index-attribute strategies (Section 4.3.6) -----------------------------

func TestStrategyMinRatePicksQuietSide(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyMinRate})
	// Warm up arrival statistics: R is hot, S is quiet.
	for i := 0; i < 20; i++ {
		env.publish(t, i, rTuple(env, float64(i), float64(i), 0))
	}
	env.publish(t, 30, sTuple(env, 1, 1, 0))

	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	// The query must be indexed under S.E (the quiet side): publishing more
	// R tuples must not trigger any rewriting.
	env.net.Traffic().Reset()
	env.publish(t, 40, rTuple(env, 1, 99, 0))
	if got := env.net.Traffic().Messages(kindJoin); got != 0 {
		t.Fatalf("query was triggered by the hot side: %d join messages", got)
	}
	env.publish(t, 41, sTuple(env, 2, 99, 0))
	if got := env.net.Traffic().Messages(kindJoin); got != 1 {
		t.Fatalf("quiet side did not trigger: %d join messages", got)
	}
	_ = q
}

func TestStrategyMinDomainPicksNarrowSide(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyMinDomain})
	// R.B takes 10 distinct values; S.E takes 2.
	for i := 0; i < 10; i++ {
		env.publish(t, i, rTuple(env, 0, float64(i), 0))
		env.publish(t, i+10, sTuple(env, 0, float64(i%2), 0))
	}
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.net.Traffic().Reset()
	// S (domain 2) must be the index side: R tuples do not trigger.
	env.publish(t, 30, rTuple(env, 1, 1, 0))
	if got := env.net.Traffic().Messages(kindJoin); got != 0 {
		t.Fatalf("wide side triggered: %d join messages", got)
	}
}

func TestStrategyProbeChargesTraffic(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyMinRate})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	if got := env.net.Traffic().Messages(kindProbe); got != 2 {
		t.Fatalf("probe messages = %d, want 2 (one per candidate rewriter)", got)
	}
}

// --- Attribute-level replication (Section 4.7.2) ----------------------------

func TestReplicationSpreadsRewriterFiltering(t *testing.T) {
	run := func(k int) metrics.Distribution {
		env := newTestEnv(t, 128, Config{Algorithm: SAI, Strategy: StrategyLeft, ReplicationFactor: k, Seed: 5})
		env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 200; i++ {
			env.publish(t, rng.Intn(128), rTuple(env, float64(i), float64(rng.Intn(50)), 0))
		}
		return metrics.SummarizeInt(env.eng.RoleLoads(metrics.Rewriter, false))
	}
	plain := run(1)
	repl := run(4)
	if repl.Max >= plain.Max {
		t.Fatalf("replication did not reduce the hottest rewriter: max %v -> %v", plain.Max, repl.Max)
	}
	if repl.NonZero <= plain.NonZero {
		t.Fatalf("replication did not add rewriters: %d -> %d", plain.NonZero, repl.NonZero)
	}
}

func TestReplicationRaisesQueryStorage(t *testing.T) {
	run := func(k int) int64 {
		env := newTestEnv(t, 128, Config{Algorithm: SAI, Strategy: StrategyLeft, ReplicationFactor: k})
		for i := 0; i < 10; i++ {
			env.subscribe(t, i, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		}
		var total int64
		for _, l := range env.eng.RoleLoads(metrics.Rewriter, true) {
			total += l
		}
		return total
	}
	if s1, s4 := run(1), run(4); s4 != 4*s1 {
		t.Fatalf("storage with k=4 is %d, want 4 x %d", s4, s1)
	}
}

func TestReplicationPreservesNotifications(t *testing.T) {
	for _, alg := range []Algorithm{SAI, DAIQ, DAIT} {
		t.Run(alg.String(), func(t *testing.T) {
			env := newTestEnv(t, 64, Config{Algorithm: alg, ReplicationFactor: 3})
			env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
			for i := 0; i < 5; i++ {
				env.publish(t, i, rTuple(env, float64(i), float64(i), 0))
				env.publish(t, i+5, sTuple(env, float64(i), float64(i), 0))
			}
			got := env.eng.Notifications()
			if len(got) != 5 {
				t.Fatalf("%d notifications, want 5: %v", len(got), got)
			}
			if len(dedup(contentKeys(got))) != 5 {
				t.Fatalf("duplicates under replication: %v", contentKeys(got))
			}
		})
	}
}

// --- Sliding window (Chapter 5 set-up) --------------------------------------

func TestWindowEvictionReducesStorage(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: DAIQ, Window: 10})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	for i := 0; i < 20; i++ {
		env.publish(t, i, sTuple(env, float64(i), float64(i), 0))
	}
	before := sum(env.eng.StorageLoads())
	env.net.Clock().Advance(100)
	env.eng.EvictExpired()
	after := sum(env.eng.StorageLoads())
	if after >= before {
		t.Fatalf("eviction did not reduce storage: %d -> %d", before, after)
	}
	// Only the stored queries (rewriter role) remain.
	var evalStorage int64
	for _, l := range env.eng.RoleLoads(metrics.Evaluator, true) {
		evalStorage += l
	}
	if evalStorage != 0 {
		t.Fatalf("evaluator storage after full eviction = %d, want 0", evalStorage)
	}
}

func TestWindowLimitsMatching(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI, Window: 5, Strategy: StrategyLeft})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 1, sTuple(env, 1, 7, 0))
	env.net.Clock().Advance(50)
	env.eng.EvictExpired()
	// The S tuple fell out of the window: a new R tuple finds nothing.
	env.publish(t, 2, rTuple(env, 1, 7, 0))
	if got := env.eng.Notifications(); len(got) != 0 {
		t.Fatalf("expired tuple matched: %v", got)
	}
}

// An evicted tuple must take its bucket with it: under a window a stream of
// mostly-unique values (every key column) would otherwise leave four empty
// value-level buckets per publication behind, forever. Ten windows of
// tuples, evicting after every step, must hold no more buckets than a few
// windows' worth — and must notify exactly what an engine that never evicts
// does for pairs no further apart than the window.
func TestWindowEvictionDropsEmptiedBuckets(t *testing.T) {
	const window, steps = 20, 10 * 20
	for _, alg := range []Algorithm{SAI, DAIQ, DAIV} {
		t.Run(alg.String(), func(t *testing.T) {
			run := func(w int64) (*testEnv, int) {
				env := newTestEnv(t, 32, Config{Algorithm: alg, Window: w})
				env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
				maxBuckets := 0
				for i := 0; i < steps; i++ {
					// An R and the S it joins are adjacent; their key returns
					// four windows later, which only the unbounded engine sees.
					key := float64(i / 2 % (2 * window))
					if i%2 == 0 {
						env.publish(t, i, rTuple(env, float64(i), key, float64(i)))
					} else {
						env.publish(t, i, sTuple(env, float64(i), key, float64(i)))
					}
					env.eng.EvictExpired()
					buckets := 0
					for _, st := range env.eng.states {
						for _, s := range st.vl {
							if s.t != nil && s.t.tuples.len() == 0 || s.q != nil && s.q.empty() || s == (vlSlot{}) {
								t.Fatal("a value-level bucket outlived all it held")
							}
							if s.t != nil {
								buckets++
							}
						}
						for _, b := range st.vstore {
							buckets += len(b.byCond.all())
						}
					}
					maxBuckets = max(maxBuckets, buckets)
				}
				return env, maxBuckets
			}
			windowed, buckets := run(window)
			// Each tuple is stored under at most three attributes and lives
			// for at most window+1 steps.
			if limit := 3 * (window + 2); buckets > limit {
				t.Fatalf("%d tuple buckets held at once over %d steps, want at most %d", buckets, steps, limit)
			}
			unbounded, _ := run(0)
			inWindow, all := map[string]bool{}, map[string]bool{}
			for _, n := range unbounded.eng.Notifications() {
				all[n.ContentKey()] = true
				if d := n.LeftPubT - n.RightPubT; -window <= d && d <= window {
					inWindow[n.ContentKey()] = true
				}
			}
			if len(inWindow) != steps/2 || len(all) <= len(inWindow) {
				t.Fatalf("the stream joins %d pairs inside the window and %d in all, want %d and more", len(inWindow), len(all), steps/2)
			}
			got := map[string]bool{}
			for _, n := range windowed.eng.Notifications() {
				got[n.ContentKey()] = true
				// SAI's stored rewritten queries are continuous and outlive
				// the window, so it also joins an old R to a new S; the
				// algorithms that store only tuples join nothing else.
				if !all[n.ContentKey()] || alg != SAI && !inWindow[n.ContentKey()] {
					t.Fatalf("notification %s under the window, which the unbounded engine restricted to it does not give", n)
				}
			}
			for k := range inWindow {
				if !got[k] {
					t.Fatalf("pair %s inside the window was not notified", k)
				}
			}
		})
	}
}

func TestEvictExpiredNoopWithoutWindow(t *testing.T) {
	env := newTestEnv(t, 16, Config{Algorithm: SAI})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 1, sTuple(env, 1, 7, 0))
	before := sum(env.eng.StorageLoads())
	env.net.Clock().Advance(1000)
	env.eng.EvictExpired()
	if after := sum(env.eng.StorageLoads()); after != before {
		t.Fatalf("no-window eviction changed storage: %d -> %d", before, after)
	}
}

// --- Offline subscribers (Section 4.6) ---------------------------------------

func TestOfflineNotificationStoredAndReplayed(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI})
	subscriber := env.node(0)
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 1, rTuple(env, 1, 7, 0))

	// The subscriber disconnects before the match happens.
	env.net.Leave(subscriber)
	env.publish(t, 2, sTuple(env, 2, 7, 0))
	if got := env.eng.Notifications(); len(got) != 0 {
		t.Fatalf("notification delivered to offline subscriber: %v", got)
	}

	// Reconnect with the same key: Chord hands over the stored
	// notifications with the keys in (pred, n].
	re, err := env.net.Join(subscriber.Key())
	if err != nil {
		t.Fatalf("rejoin: %v", err)
	}
	env.eng.Attach(re)
	// Attach happens after the join's key hand-off in this test, so the
	// hand-off went to the lazily attached state; trigger replay through a
	// second hand-off cycle is unnecessary because Attach precedes Join in
	// production use. Verify delivery happened during the join:
	got := env.eng.Notifications()
	if len(got) != 1 {
		t.Fatalf("stored notification not replayed on rejoin: %v", got)
	}
	if got[0].DeliveredAt == 0 {
		t.Fatal("replayed notification missing delivery time")
	}
}

func sum(xs []int64) int64 {
	var s int64
	for _, x := range xs {
		s += x
	}
	return s
}
