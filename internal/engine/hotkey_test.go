package engine

import (
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
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

// Tests for adaptive hot-key sharding (DESIGN.md §13). Every scenario runs
// the same publish sequence against a sharding engine and an unsharded
// oracle engine and requires identical notification content — sharding may
// only move work, never change results.

func hotConfig(on bool) Config {
	cfg := Config{Algorithm: SAI, Seed: 7}
	if on {
		cfg.HotKeyThreshold = 8
		cfg.HotKeyReplicas = 4
	}
	return cfg
}

// publishHotPair inserts nS S-tuples and nR R-tuples that all join on one
// hot value (R.B = S.E = 7) with otherwise distinct attributes, so exactly
// one value-level input per side concentrates the traffic.
func publishHotPair(t *testing.T, env *testEnv, nS, nR int) {
	t.Helper()
	for i := 0; i < nS; i++ {
		env.publish(t, 1+i, sTuple(env, float64(i), 7, float64(i)))
	}
	for i := 0; i < nR; i++ {
		env.publish(t, 2+i, rTuple(env, float64(i), 7, float64(i)))
	}
}

func TestHotKeyShardingReducesMaxLoad(t *testing.T) {
	run := func(on bool) (*testEnv, metrics.Distribution) {
		env := newTestEnv(t, 64, hotConfig(on))
		env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		publishHotPair(t, env, 120, 30)
		return env, metrics.SummarizeInt(env.eng.RoleLoads(metrics.Evaluator, false))
	}
	envOff, distOff := run(false)
	envOn, distOn := run(true)

	if got, want := contentKeys(envOn.eng.Notifications()), contentKeys(envOff.eng.Notifications()); !reflect.DeepEqual(got, want) {
		t.Fatalf("sharded run delivered %d notifications, oracle %d", len(got), len(want))
	}
	if len(envOff.eng.Notifications()) != 120*30 {
		t.Fatalf("oracle delivered %d notifications, want %d", len(envOff.eng.Notifications()), 120*30)
	}
	hot := envOn.eng.HotKeys()
	if len(hot) == 0 {
		t.Fatal("no promoted inputs after a skewed stream")
	}
	for _, h := range hot {
		if h.Replicas != 4 {
			t.Fatalf("unexpected hot-key state: %+v", h)
		}
	}
	if keys := envOff.eng.HotKeys(); keys != nil {
		t.Fatalf("disabled engine reports hot keys: %v", keys)
	}
	// The point of the layer: the hottest evaluator sheds at least half its
	// filtering load, and the load spread tightens.
	if 2*distOn.Max > distOff.Max {
		t.Fatalf("max evaluator load %.0f not halved from %.0f", distOn.Max, distOff.Max)
	}
	if distOn.Gini >= distOff.Gini {
		t.Fatalf("evaluator Gini %.3f did not drop from %.3f", distOn.Gini, distOff.Gini)
	}
}

func TestHotKeyUniformWorkloadIdentical(t *testing.T) {
	// Values spread wide: no input crosses the threshold, so the layer must
	// be a strict no-op — same notifications in the same order, same loads.
	run := func(on bool) *testEnv {
		env := newTestEnv(t, 64, hotConfig(on))
		env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		for i := 0; i < 60; i++ {
			env.publish(t, 1+i, sTuple(env, float64(i), float64(i%20), float64(i)))
			env.publish(t, 2+i, rTuple(env, float64(i), float64(i%20), float64(i)))
		}
		return env
	}
	envOff := run(false)
	envOn := run(true)
	if len(envOn.eng.HotKeys()) != 0 {
		t.Fatalf("uniform workload promoted inputs: %v", envOn.eng.HotKeys())
	}
	if got, want := envOn.eng.DeliveredContentKeys(), envOff.eng.DeliveredContentKeys(); !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery sequences diverge: %d vs %d", len(got), len(want))
	}
	if got, want := envOn.eng.FilteringLoads(), envOff.eng.FilteringLoads(); !reflect.DeepEqual(got, want) {
		t.Fatalf("filtering loads diverge:\n on=%v\noff=%v", got, want)
	}
	if got, want := envOn.eng.StorageLoads(), envOff.eng.StorageLoads(); !reflect.DeepEqual(got, want) {
		t.Fatalf("storage loads diverge:\n on=%v\noff=%v", got, want)
	}
}

// largestTupleTable returns the most tuples one value-level bucket of the
// engine stores.
func largestTupleTable(env *testEnv) int {
	largest := 0
	for _, st := range env.eng.states {
		for _, s := range st.vl {
			if s.t != nil {
				largest = max(largest, s.t.tuples.len())
			}
		}
	}
	return largest
}

// bucketHolding returns the node state whose value-level buckets hold input,
// nil where none does.
func bucketHolding(env *testEnv, input string) *nodeState {
	for _, st := range env.eng.states {
		if st.vlSlotOf(input) != (vlSlot{}) {
			return st
		}
	}
	return nil
}

// storedRewriteKeys returns the sorted keys of the rewrites stored under input.
func storedRewriteKeys(env *testEnv, input string) []string {
	var keys []string
	if st := bucketHolding(env, input); st != nil && st.vlSlotOf(input).q != nil {
		for _, rw := range st.vlSlotOf(input).q.rewrites.all() {
			keys = append(keys, rw.key())
		}
	}
	sort.Strings(keys)
	return keys
}

// Promotion moves only the rewrite set: the base keeps every tuple it stored
// while cold, and every shard holds the base's rewrite set, the rewrites the
// base stored before the promotion included. Run once with
// every tuple table involved small enough to be scanned and once with the
// fullest indexed (tables.go): matching must see every stored hot tuple,
// whichever bucket holds it, in either form.
func TestHotKeyPromotionPartitionsBucket(t *testing.T) {
	const early = 2
	for _, tc := range []struct {
		name             string
		threshold, burst int
		indexed          bool
	}{
		{name: "scanned tables", threshold: 4, burst: 12},
		{name: "indexed tables", threshold: 3 * smallTableMax, burst: 120, indexed: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(on bool) *testEnv {
				cfg := Config{Algorithm: SAI, Seed: 7}
				if on {
					cfg.HotKeyThreshold = tc.threshold
					cfg.HotKeyReplicas = 4
				}
				env := newTestEnv(t, 64, cfg)
				env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
				// Rewrites the base of S+E+7 stores while it is cold, which
				// its promotion copies to the shards.
				for i := 0; i < early; i++ {
					env.publish(t, 30+i, rTuple(env, float64(100+i), 7, 0))
				}
				// Burst: promotes S+E+7 with the tuples published while it
				// was cold already in its base bucket.
				var cold []string
				for i := 0; i < tc.burst; i++ {
					tu := env.publish(t, 1+i, sTuple(env, float64(i), 7, float64(i)))
					if !slices.ContainsFunc(env.eng.HotKeys(), func(h HotKeyState) bool { return h.Input == "S+E+7" }) {
						cold = append(cold, contentKey(tu))
					}
				}
				if on {
					if len(cold) == 0 || len(cold) == tc.burst {
						t.Fatalf("%d of %d tuples published while S+E+7 was cold: the burst promoted it first or never", len(cold), tc.burst)
					}
					base := bucketHolding(env, "S+E+7")
					for _, key := range cold {
						if base == nil || !slices.ContainsFunc(base.vlSlotOf("S+E+7").t.tuples.all(), func(tu *relation.Tuple) bool { return contentKey(tu) == key }) {
							t.Fatalf("the base no longer holds %s, stored before the promotion", key)
						}
					}
					if got := largestTupleTable(env); (got > smallTableMax) != tc.indexed {
						t.Fatalf("fullest tuple table holds %d tuples, threshold %d: not the regime this case is for", got, smallTableMax)
					}
				}
				// Matching must see every stored hot tuple, whichever bucket
				// holds it now.
				for i := 0; i < 5; i++ {
					env.publish(t, 7+i, rTuple(env, float64(i), 7, float64(i)))
				}
				if on {
					hot := env.eng.HotKeys()
					if !slices.ContainsFunc(hot, func(h HotKeyState) bool { return len(storedRewriteKeys(env, h.Input)) > 5 }) {
						t.Fatalf("no promoted input holds a rewrite from before its promotion: %v", hot)
					}
					for _, h := range hot {
						want := storedRewriteKeys(env, h.Input)
						for s := 1; s < h.Replicas; s++ {
							if got := storedRewriteKeys(env, string(appendShardInput(nil, h.Input, s))); !slices.Equal(got, want) {
								t.Fatalf("shard %d of %s holds %d rewrites, the base %d", s, h.Input, len(got), len(want))
							}
						}
					}
				}
				return env
			}
			envOff := run(false)
			envOn := run(true)
			if got, want := contentKeys(envOn.eng.Notifications()), contentKeys(envOff.eng.Notifications()); !reflect.DeepEqual(got, want) {
				t.Fatalf("promotion lost or duplicated matches: %d vs %d", len(got), len(want))
			}
			if len(envOff.eng.Notifications()) != (early+5)*tc.burst {
				t.Fatalf("the never-sharded run delivered %d notifications, want %d", len(envOff.eng.Notifications()), (early+5)*tc.burst)
			}
		})
	}
}

func TestHotKeyUnsubscribePurgesShards(t *testing.T) {
	// Publishers index blind, so a retraction's marks do not keep the later
	// tuples from the value level: only its purges can.
	cfg := hotConfig(true)
	cfg.BlindIndexing = true
	env := newTestEnv(t, 64, cfg)
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	publishHotPair(t, env, 30, 10)
	if len(env.eng.HotKeys()) == 0 {
		t.Fatal("no promoted inputs")
	}
	before := len(env.eng.Notifications())
	if before == 0 {
		t.Fatal("no notifications before retraction")
	}
	if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
		t.Fatalf("Unsubscribe: %v", err)
	}
	// New arrivals on the hot value: rewrite copies at every shard bucket
	// must be gone, or the stale copies would keep matching.
	for i := 0; i < 20; i++ {
		env.publish(t, 3+i, sTuple(env, float64(200+i), 7, float64(200+i)))
	}
	for i := 0; i < 5; i++ {
		env.publish(t, 4+i, rTuple(env, float64(200+i), 7, float64(200+i)))
	}
	if after := len(env.eng.Notifications()); after != before {
		t.Fatalf("%d notifications after retraction, want %d", after, before)
	}
}

// promoted reports whether env's engine lists input as promoted.
func promoted(env *testEnv, input string) bool {
	return slices.ContainsFunc(env.eng.HotKeys(), func(h HotKeyState) bool { return h.Input == input })
}

// moveEveryNode hands every node of env over the wire, as ExportHandoff sends
// it, to a fresh engine over a ring of the same nodes: another process, which
// has seen none of env's traffic. The subscriber's index and the clock go
// along, so the fresh engine can retract env's queries and publish after
// env's last tuple.
func moveEveryNode(t *testing.T, env *testEnv, cfg Config) *testEnv {
	t.Helper()
	fresh := newTestEnv(t, len(env.nodes), cfg)
	fresh.net.Clock().Advance(env.net.Clock().Now() - fresh.net.Clock().Now())
	fresh.eng.subs = maps.Clone(env.eng.subs)
	for i, node := range env.nodes {
		msg, ok := env.eng.ExportHandoff(node)
		if !ok {
			continue
		}
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeMessage(wire.NewReader(w.Bytes()), fresh.catalog)
		if err != nil {
			t.Fatal(err)
		}
		to := fresh.nodes[i]
		if to.Key() != node.Key() {
			t.Fatalf("node %d is %s here and %s there", i, to, node)
		}
		fresh.eng.state(to).HandleMessage(to, decoded)
	}
	return fresh
}

// A promotion is its base's state, so it crosses a process hand-off with the
// base: the R tuples published after the move, fewer than the threshold, are
// scattered to the shards and meet the S tuples the shards hold.
func TestPromotionCrossesAProcessHandoff(t *testing.T) {
	run := func(on bool) (got map[string]bool, hot bool) {
		env := newTestEnv(t, 64, hotConfig(on))
		env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		publishHotPair(t, env, 30, 0)
		hot = promoted(env, "S+E+7")
		got = gotContents(env)
		fresh := moveEveryNode(t, env, hotConfig(on))
		for i := 0; i < 5; i++ {
			fresh.publish(t, 2+i, rTuple(fresh, float64(i), 7, float64(i)))
		}
		maps.Copy(got, gotContents(fresh))
		return got, hot
	}
	want, cold := run(false)
	got, hot := run(true)
	if cold || !hot {
		t.Fatalf("S+E+7 promoted: %v sharded, %v unsharded", hot, cold)
	}
	if len(want) != 30*5 {
		t.Fatalf("the unsharded run delivered %d matches, want %d", len(want), 30*5)
	}
	assertSetsEqual(t, SAI, want, got)
}

// The base of a promoted input fans a purge out to its shards, so a
// retraction reaches them from a process that never saw the promotion: after
// the move, a retraction at the fresh engine stops every notification.
func TestRetractionReachesShardsAfterAHandoff(t *testing.T) {
	// Publishers index blind, so a retraction's marks do not keep the later
	// tuples from the value level: only its purges can.
	cfg := hotConfig(true)
	cfg.BlindIndexing = true
	env := newTestEnv(t, 64, cfg)
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	publishHotPair(t, env, 30, 10)
	if !promoted(env, "S+E+7") {
		t.Fatalf("S+E+7 not promoted: %v", env.eng.HotKeys())
	}
	fresh := moveEveryNode(t, env, cfg)
	if err := fresh.eng.Unsubscribe(fresh.node(0), q); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		fresh.publish(t, 3+i, sTuple(fresh, float64(200+i), 7, float64(200+i)))
	}
	for i := 0; i < 5; i++ {
		fresh.publish(t, 4+i, rTuple(fresh, float64(200+i), 7, float64(200+i)))
	}
	if n := fresh.eng.NotificationCount(); n != 0 {
		t.Fatalf("%d notifications after the retraction", n)
	}
}

// A hot frame's Shard comes off the wire: one outside [1, k) stores nothing,
// and one inside stores as a shard does. A snapshot written while the
// registry was engine-wide restores its promotions at each input's owner, and
// one of another K than the ring's is refused.
func TestForgedShardCountIsRefused(t *testing.T) {
	env := newTestEnv(t, 16, hotConfig(true))
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	node := env.nodes[3]
	tu := sTuple(env, 1, 7, 1).WithPubT(5)
	trig := rTuple(env, 1, 7, 1).WithPubT(4)
	rw := rewritten{Orig: q, rewriteTarget: &rewriteTarget{Trigger: trig, Want: &relation.AttrRef{Rel: "S", Attr: "E"}, WantValue: trig.MustValue("B")}}
	stored := func() int {
		c := env.eng.Census()
		return c["vltt_tuples"].Sum + c["vlqt_rewrites"].Sum
	}
	base := stored()
	for _, shard := range []int{-1, 0, 4, 1 << 40} {
		for _, msg := range []chord.Message{
			hotVLIndexMsg{Input: "S+E+7", Shard: shard, T: tu},
			hotJoinMsg{Input: "S+E+7", Shard: shard, Rewrites: []rewritten{rw}},
		} {
			env.eng.state(node).HandleMessage(node, msg)
		}
	}
	if got := stored(); got != base || len(env.eng.HotKeys()) != 0 {
		t.Fatalf("frames of shards outside [1, 4) stored %d items, promoted %v", got-base, env.eng.HotKeys())
	}
	env.eng.state(node).HandleMessage(node, hotVLIndexMsg{Input: "S+E+7", Shard: 3, T: tu})
	env.eng.state(node).HandleMessage(node, hotJoinMsg{Input: "S+E+7", Shard: 3, Rewrites: []rewritten{rw}})
	if got := stored(); got != base+2 {
		t.Fatalf("a tuple and a rewrite for shard 3 stored %d items, want 2", got-base)
	}

	meta, nodes := env.eng.ExportSnapshot(nil)
	if m := meta.(snapMetaMsg); len(m.HotEpochs)+len(m.HotCounts) != 0 {
		t.Fatalf("the meta lists the hot-key state: %+v %+v", m.HotEpochs, m.HotCounts)
	}
	parent := func(k int) chord.Message {
		m := meta.(snapMetaMsg)
		m.HotEpochs = []hotEpochEntry{{Input: "S+E+9", Version: 1, K: k}, {Input: "S+E+8", Version: 2}}
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
	fresh := newTestEnv(t, 16, hotConfig(true))
	if _, err := fresh.eng.RestoreSnapshot(parent(4), nodes); err != nil {
		t.Fatal(err)
	}
	if hot := fresh.eng.HotKeys(); !slices.Equal(hot, []HotKeyState{{Input: "S+E+9", Replicas: 4}}) {
		t.Fatalf("a parent's epochs of the ring's K restored as %+v", hot)
	}
	owner := fresh.eng.state(fresh.net.OracleSuccessor(id.Hash("S+E+9")))
	if h := owner.hot["S+E+9"]; h == nil || !h.promoted {
		t.Fatalf("the owner of S+E+9 holds %+v", h)
	}
	const forged = 1 << 40
	if _, err := newTestEnv(t, 16, hotConfig(true)).eng.RestoreSnapshot(parent(forged), nodes); err == nil {
		t.Fatalf("a snapshot of a %d-way epoch restored", forged)
	}
}

// A chain shards like a two-way query (snippet 2's user → order → product,
// beside its user → order): one user's orders, on five products, promote
// the orders' inputs mid-stream, and the stream delivers the match set of an
// unsharded run. A retraction after the promotion stops every notification, so its
// purge reaches the shards and follows the rewrites that went on from them.
func TestHotKeyShardsChains(t *testing.T) {
	users := relation.MustSchema("Users", "UserId", "Name")
	orders := relation.MustSchema("Orders", "OrderId", "UserId", "ProductId")
	products := relation.MustSchema("Products", "ProductId", "ProductName", "Price")
	catalog := relation.MustCatalog(users, orders, products)
	s, n := relation.S, relation.N
	for _, tc := range []struct{ name, sql string }{
		{"k=2", `SELECT Users.Name, Orders.OrderId FROM Users, Orders WHERE Users.UserId = Orders.UserId`},
		{"k=3", `SELECT Users.Name, Products.ProductName, Products.Price FROM Users, Orders, Products
			WHERE Users.UserId = Orders.UserId AND Orders.ProductId = Products.ProductId`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(threshold int) (keys []string, hot []HotKeyState, after func() int) {
				net := chord.New(chord.Config{})
				net.AddNodes("peer", 64)
				// Publishers index blind, so a retraction's marks do not keep
				// the later tuples from the value level: only its purges can.
				eng := New(net, catalog, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 7, BlindIndexing: true,
					HotKeyThreshold: threshold, HotKeyReplicas: 4})
				nodes := net.Nodes()
				pub := func(i int, tu *relation.Tuple) {
					if _, err := eng.Publish(nodes[i%len(nodes)], tu); err != nil {
						t.Fatal(err)
					}
				}
				q, err := eng.Subscribe(nodes[0], query.MustParse(catalog, tc.sql))
				if err != nil {
					t.Fatal(err)
				}
				stream := func(from int) {
					for u := 0; u < 3; u++ {
						pub(from+u, relation.MustTuple(users, s(fmt.Sprintf("u%d", u)), s(fmt.Sprintf("user %d", u))))
					}
					for i := 0; i < 40; i++ {
						user := "u0" // the hot one
						if i%4 == 3 {
							user = fmt.Sprintf("u%d", 1+i%2)
						}
						pub(from+i, relation.MustTuple(orders, s(fmt.Sprintf("o%d-%d", from, i)), s(user), s(fmt.Sprintf("p%d", i%5))))
						if i%8 == 0 {
							pub(from+i+1, relation.MustTuple(products, s(fmt.Sprintf("p%d", i/8)), s(fmt.Sprintf("product %d", i/8)), n(float64(from+i))))
						}
					}
				}
				stream(0)
				for _, no := range eng.Notifications() {
					keys = append(keys, deliveryKey(no))
				}
				sort.Strings(keys)
				return keys, eng.HotKeys(), func() int {
					before := len(eng.Notifications())
					if err := eng.Unsubscribe(nodes[0], q); err != nil {
						t.Fatal(err)
					}
					stream(1000)
					return len(eng.Notifications()) - before
				}
			}
			want, cold, _ := run(0)
			got, hot, retract := run(8)
			if len(want) == 0 || cold != nil {
				t.Fatalf("the unsharded run delivered %d matches, promoted %v", len(want), cold)
			}
			if !slices.ContainsFunc(hot, func(h HotKeyState) bool { return strings.HasPrefix(h.Input, "Orders+") }) {
				t.Fatalf("no input of the orders was promoted: %v", hot)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("sharded: %d matches, unsharded %d: %v", len(got), len(want), diffStrings(want, got))
			}
			if extra := retract(); extra != 0 {
				t.Fatalf("%d notifications after the retraction", extra)
			}
		})
	}
}

// A shard refuses a rewrite that arrives behind its query's purge, as the base
// does (liveRewrites): the hot-join frames of a promoted run, delivered again
// after the retraction, store nothing.
func TestShardRefusesARewriteBehindItsPurge(t *testing.T) {
	env := newTestEnv(t, 64, hotConfig(true))
	q := env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	type frame struct {
		dst *chord.Node
		msg chord.Message
	}
	var frames []frame
	env.net.SetInterceptor(interceptFunc(func(_, dst *chord.Node, msg chord.Message, forward func() bool) int {
		if msg.Kind() == kindHotJoin {
			frames = append(frames, frame{dst, msg})
		}
		return btoi(forward())
	}))
	publishHotPair(t, env, 30, 10)
	env.net.SetInterceptor(nil)
	if len(frames) == 0 {
		t.Fatal("the hot pair sent no hot-join")
	}
	if err := env.eng.Unsubscribe(env.node(0), q); err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		env.eng.state(f.dst).HandleMessage(f.dst, f.msg)
	}
	if got := env.eng.Census()["vlqt_rewrites"].Sum; got != 0 {
		t.Fatalf("%d rewrites stored after %d hot-joins replayed behind the retraction, want 0", got, len(frames))
	}
	for _, st := range env.eng.states {
		for h, s := range st.vl {
			if s.q == nil {
				continue
			}
			for _, rw := range s.q.rewrites.all() {
				if rw.Orig.Key() == q.Key() {
					t.Fatalf("%s holds a rewrite of the retracted query", h)
				}
			}
		}
	}
}

// Several publishers at once on one hot value, through its promotion: which
// arrival promotes the key's inputs depends on scheduling, and what is
// delivered must not. The set equals the oracle's and that of a run that
// never shards, each match delivered once. Run with -race.
func TestConcurrentPublishersPromoteAHotKey(t *testing.T) {
	const publishers, each = 4, 30
	run := func(on bool) (got, want map[string]bool, hot []HotKeyState) {
		env := newTestEnv(t, 64, hotConfig(on))
		o := NewOracle()
		o.AddQuery(env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`))
		published := make([][]*relation.Tuple, publishers)
		var wg sync.WaitGroup
		for p := 0; p < publishers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					id := float64(p*each + i)
					tu := sTuple(env, id, 7, id)
					if (p+i)%2 == 0 {
						tu = rTuple(env, id, 7, id)
					}
					pub, err := env.eng.Publish(env.node(1+p), tu)
					if err != nil {
						t.Error(err)
						return
					}
					published[p] = append(published[p], pub)
				}
			}(p)
		}
		wg.Wait()
		for _, tuples := range published {
			for _, tu := range tuples {
				o.AddTuple(tu)
			}
		}
		got = gotContents(env)
		if n := env.eng.NotificationCount(); n != len(got) {
			t.Errorf("sharded=%v: %d notifications for %d matches", on, n, len(got))
		}
		return got, o.ExpectedContentKeys(), env.eng.HotKeys()
	}
	cold, coldWant, coldHot := run(false)
	got, want, hot := run(true)
	if len(hot) == 0 || len(coldHot) != 0 {
		t.Fatalf("promoted %v sharded, %v unsharded", hot, coldHot)
	}
	if len(want) != publishers*each*publishers*each/4 || !maps.Equal(want, coldWant) {
		t.Fatalf("the oracle derives %d matches, want %d", len(want), publishers*each*publishers*each/4)
	}
	assertSetsEqual(t, SAI, want, cold)
	assertSetsEqual(t, SAI, want, got)
}
