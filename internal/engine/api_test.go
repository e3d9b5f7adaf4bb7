package engine

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/metrics"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

func TestEngineAccessors(t *testing.T) {
	env := newTestEnv(t, 16, Config{Algorithm: DAIT, UseJFRT: true, Window: 9})
	cfg := env.eng.Config()
	if cfg.Algorithm != DAIT || !cfg.UseJFRT || cfg.Window != 9 {
		t.Fatalf("Config() = %+v", cfg)
	}
	if env.eng.Network() != env.net {
		t.Fatal("Network() wrong")
	}
}

// The notifications belong to whoever consumes them: under a callback the
// engine counts them and keeps none; with the callback removed it records
// again, and a reset clears record and count alike.
func TestOnNotifyCallbackAndReset(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI})
	var taken []Notification
	env.eng.OnNotify(func(n Notification) { taken = append(taken, n) })
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 1, rTuple(env, 1, 7, 0))
	env.publish(t, 2, sTuple(env, 2, 7, 0))
	if len(taken) != 1 || env.eng.NotificationCount() != 1 {
		t.Fatalf("callback calls = %d, NotificationCount() = %d, want 1 and 1", len(taken), env.eng.NotificationCount())
	}
	if got := env.eng.Notifications(); len(got) != 0 {
		t.Fatalf("the engine recorded %d notifications its consumer took", len(got))
	}
	if got := env.eng.DeliveredContentKeys(); len(got) != 0 {
		t.Fatalf("the engine recorded %d content keys its consumer took", len(got))
	}
	env.eng.ResetNotifications()
	if got := env.eng.NotificationCount(); got != 0 {
		t.Fatalf("ResetNotifications left a count of %d", got)
	}
	// The callback keeps firing after a reset.
	env.publish(t, 3, sTuple(env, 3, 7, 0))
	if len(taken) != 2 || env.eng.NotificationCount() != 1 {
		t.Fatalf("callback calls = %d, NotificationCount() = %d after the reset, want 2 and 1", len(taken), env.eng.NotificationCount())
	}

	// Removed, the engine records what nobody takes; what the consumer took
	// is not back.
	env.eng.OnNotify(nil)
	env.publish(t, 4, sTuple(env, 4, 7, 0))
	got := env.eng.Notifications()
	if len(taken) != 2 || len(got) != 1 || env.eng.NotificationCount() != 2 {
		t.Fatalf("without a callback: %d calls, %d recorded, count %d; want 2, 1, 2", len(taken), len(got), env.eng.NotificationCount())
	}
	if got[0].Values[1].Num() != 4 {
		t.Fatalf("recorded %s, want the match of the S tuple with D = 4", got[0])
	}
	env.eng.ResetNotifications()
	if len(env.eng.Notifications()) != 0 || env.eng.NotificationCount() != 0 {
		t.Fatalf("ResetNotifications left %d entries, count %d", len(env.eng.Notifications()), env.eng.NotificationCount())
	}
}

// Dedupe does not depend on who keeps the notifications: delivered again —
// a retry, a hand-off merge, a replayed log — a match is suppressed and
// charged as a duplicate, under a consumer as in the record.
func TestRedeliveryIsSuppressedUnderConsumer(t *testing.T) {
	for _, consumed := range []bool{false, true} {
		env := newTestEnv(t, 32, Config{Algorithm: SAI})
		var taken []Notification
		if consumed {
			env.eng.OnNotify(func(n Notification) { taken = append(taken, n) })
		}
		env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		env.publish(t, 1, rTuple(env, 1, 7, 0))
		env.publish(t, 2, sTuple(env, 2, 7, 0))
		first := taken
		if !consumed {
			first = env.eng.Notifications()
		}
		if len(first) != 1 {
			t.Fatalf("consumed=%v: %d notifications, want 1", consumed, len(first))
		}
		env.eng.record(first[0])
		if got := env.net.Traffic().Duplicates("notification"); got != 1 {
			t.Fatalf("consumed=%v: %d duplicates charged for one re-delivery", consumed, got)
		}
		if consumed && (len(taken) != 1 || len(env.eng.Notifications()) != 0) {
			t.Fatalf("a re-delivery reached the consumer %d times, the record %d", len(taken)-1, len(env.eng.Notifications()))
		}
		if got := env.eng.NotificationCount(); got != 1 {
			t.Fatalf("consumed=%v: count %d after a suppressed re-delivery", consumed, got)
		}
	}
}

// deliveryKey's form is persisted by snapshots: Key(q) — which names the
// subscriber — the projected values, the two publication times.
func TestDeliveryKeyForm(t *testing.T) {
	n := Notification{
		QueryKey: "peer5#2", Subscriber: "peer5",
		Values:   []relation.Value{relation.N(1.5), relation.S("a|b")},
		LeftPubT: 9, RightPubT: -11, DeliveredAt: 40,
	}
	if got, want := deliveryKey(n), "peer5#2|1.5|a|b|9|-11"; got != want {
		t.Fatalf("deliveryKey = %q, want %q", got, want)
	}
}

// snapshotInto takes env's snapshot through the wire and restores it into a
// fresh engine of the same shape, whose OnNotify is consumer.
func snapshotInto(t *testing.T, env *testEnv, consumer func(Notification)) *testEnv {
	t.Helper()
	meta, nodes := env.eng.ExportSnapshot(nil)
	var w wire.Buffer
	if err := EncodeMessage(&w, meta); err != nil {
		t.Fatal(err)
	}
	meta, err := DecodeMessage(wire.NewReader(w.Bytes()), env.catalog)
	if err != nil {
		t.Fatal(err)
	}
	fresh := newTestEnv(t, len(env.nodes), env.eng.Config())
	fresh.eng.OnNotify(consumer)
	if _, err := fresh.eng.RestoreSnapshot(meta, nodes); err != nil {
		t.Fatal(err)
	}
	return fresh
}

// A snapshot carries what dedupe and the count need whoever kept the
// notifications: the record itself where there is one, bare identities where
// a consumer took them.
func TestSnapshotCarriesDeliveredIdentities(t *testing.T) {
	stream := func(env *testEnv) {
		env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		for i := 0; i < 5; i++ {
			env.publish(t, 1+i, rTuple(env, float64(i), float64(i%2), 0))
			env.publish(t, 7+i, sTuple(env, float64(i), float64(i%2), 0))
		}
	}

	polled := newTestEnv(t, 32, Config{Algorithm: SAI})
	stream(polled)
	want := polled.eng.Notifications()
	if len(want) != 13 {
		t.Fatalf("the stream delivered %d notifications, want 13", len(want))
	}
	restored := snapshotInto(t, polled, nil)
	if got := restored.eng.Notifications(); !reflect.DeepEqual(got, want) {
		t.Fatalf("a polling-mode snapshot restored\n%v\nthe exporter had\n%v", got, want)
	}
	if got := restored.eng.NotificationCount(); got != len(want) {
		t.Fatalf("restored count %d, want %d", got, len(want))
	}

	consumed := newTestEnv(t, 32, Config{Algorithm: SAI})
	var taken []Notification
	consumed.eng.OnNotify(func(n Notification) { taken = append(taken, n) })
	stream(consumed)
	meta, _ := consumed.eng.ExportSnapshot(nil)
	if m := meta.(snapMetaMsg); len(m.Sink) != 0 || len(m.Identities) != len(want) || len(m.Delivered) != 0 {
		t.Fatalf("a consumer's snapshot carries %d notifications, %d identities and %d text ones, want 0, %d and 0",
			len(m.Sink), len(m.Identities), len(m.Delivered), len(want))
	}
	// Either snapshot, restored under a consumer or not: the count is back and
	// every pre-snapshot match is known delivered.
	for _, from := range []*testEnv{polled, consumed} {
		for _, consume := range []bool{false, true} {
			again := 0
			var consumer func(Notification)
			if consume {
				consumer = func(Notification) { again++ }
			}
			restored := snapshotInto(t, from, consumer)
			if got := restored.eng.NotificationCount(); got != len(want) {
				t.Fatalf("restored count %d, want %d", got, len(want))
			}
			if consume && len(restored.eng.Notifications()) != 0 {
				t.Fatalf("restored under a consumer, the engine keeps %d notifications", len(restored.eng.Notifications()))
			}
			for _, n := range taken {
				restored.eng.record(n)
			}
			if got := restored.net.Traffic().Duplicates("notification"); got != int64(len(want)) || again != 0 {
				t.Fatalf("of %d pre-snapshot matches re-delivered, %d were suppressed and %d reached the consumer", len(want), got, again)
			}
			if got := restored.eng.NotificationCount(); got != len(want) {
				t.Fatalf("count %d after the suppressed re-deliveries, want %d", got, len(want))
			}
			// The restored subscription fires on a fresh pair, once.
			restored.publish(t, 3, rTuple(restored, 50, 77, 0))
			restored.publish(t, 4, sTuple(restored, 51, 77, 0))
			if got := restored.eng.NotificationCount(); got != len(want)+1 {
				t.Fatalf("a fresh pair moved the count to %d, want %d", got, len(want)+1)
			}
		}
	}
}

// Delivered identities freeze into runs, which merge, and a run's identity
// longer than a page takes a page of its own: across runs of several levels
// and such pages, each stays the identity of its notification, suppresses a
// replay of it, and survives a snapshot.
func TestDeliveredIdentitiesAcrossRuns(t *testing.T) {
	defer func(m int) { recentMax = m }(recentMax)
	recentMax = 4
	env := newTestEnv(t, 32, Config{Algorithm: SAI})
	var taken []Notification
	env.eng.OnNotify(func(n Notification) { taken = append(taken, n) })
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	pad := strings.Repeat("x", pageSize/4)
	env.publish(t, 3, relation.MustTuple(env.r, relation.S(strings.Repeat("y", 2*pageSize+1)), relation.N(99), relation.N(0)))
	env.publish(t, 4, sTuple(env, 99, 99, 0))
	for i := 0; i < 40; i++ {
		env.publish(t, 1+i, relation.MustTuple(env.r, relation.S(fmt.Sprint(i, pad)), relation.N(float64(i)), relation.N(0)))
		env.publish(t, 2+i, sTuple(env, float64(i), float64(i), 0))
	}
	if len(taken) != 41 {
		t.Fatalf("the stream delivered %d notifications, want 41", len(taken))
	}
	want := make(map[string]bool)
	for _, n := range taken {
		want[deliveryKey(n)] = true
	}
	knows := func(what string, e *Engine) {
		t.Helper()
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.delivered.len() != len(want) {
			t.Fatalf("%s: %d identities delivered, want %d", what, e.delivered.len(), len(want))
		}
		levels, pages, big := map[int]bool{}, 0, 0
		for _, r := range e.delivered.runs {
			levels[r.level] = true
			for _, p := range r.pages {
				pages++
				if len(p) > pageSize {
					big++
				}
			}
		}
		if len(levels) < 2 || pages < 10 || big != 1 {
			t.Fatalf("%s: the runs are of %d levels on %d pages, %d of them past a page's size; want 2 levels, 10 pages and 1", what, len(levels), pages, big)
		}
		seen := make(map[string]bool)
		e.delivered.each(func(id []byte) {
			k := e.delivered.render(id)
			if !want[k] || seen[k] {
				t.Fatalf("%s: delivered holds %.40q... twice or as no notification's deliveryKey", what, k)
			}
			seen[k] = true
		})
		if len(seen) != len(want) {
			t.Fatalf("%s: each yields %d identities, want %d", what, len(seen), len(want))
		}
	}
	knows("recorded", env.eng)
	for _, n := range taken {
		env.eng.record(n)
	}
	if got := env.net.Traffic().Duplicates("notification"); got != int64(len(taken)) || env.eng.NotificationCount() != len(taken) {
		t.Fatalf("of %d replays, %d were suppressed; count %d", len(taken), got, env.eng.NotificationCount())
	}
	knows("after the replays", env.eng)

	again := 0
	restored := snapshotInto(t, env, func(Notification) { again++ })
	knows("restored", restored.eng)
	for _, n := range taken {
		restored.eng.record(n)
	}
	if got := restored.net.Traffic().Duplicates("notification"); got != int64(len(taken)) || again != 0 {
		t.Fatalf("restored: of %d replays, %d were suppressed and %d reached the consumer", len(taken), got, again)
	}
}

// TS is a level read off the tables, TF a flow: a reset zeroes TF and leaves
// TS. Across a crash and a protocol leave of the nodes holding the most
// queries, the rewriters hold every query once per rewriter it has (one under
// SAI, two under DAI), and once every query is retracted they hold none.
func TestLoadAccessorsAndReset(t *testing.T) {
	env := newTestEnv(t, 24, Config{Algorithm: SAI})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 1, rTuple(env, 1, 7, 0))
	if sum(env.eng.FilteringLoads()) == 0 {
		t.Fatal("FilteringLoads all zero")
	}
	ts := sum(env.eng.StorageLoads())
	if ts == 0 {
		t.Fatal("StorageLoads all zero")
	}
	if got := len(env.eng.FilteringLoads()); got != 24 {
		t.Fatalf("loads length = %d, want one per node", got)
	}
	env.eng.ResetLoads()
	if got := sum(env.eng.FilteringLoads()); got != 0 {
		t.Fatalf("ResetLoads left a TF of %d", got)
	}
	if got := sum(env.eng.StorageLoads()); got != ts {
		t.Fatalf("ResetLoads moved TS from %d to %d", ts, got)
	}

	for _, c := range []struct {
		alg       Algorithm
		rewriters int64
	}{{SAI, 1}, {DAIQ, 2}, {DAIT, 2}, {DAIV, 2}} {
		t.Run(c.alg.String(), func(t *testing.T) {
			env := newTestEnv(t, 24, Config{Algorithm: c.alg})
			var qs []*query.Query
			for i, l := range []string{"A", "B", "C"} {
				for j, r := range []string{"D", "E", "F"} {
					qs = append(qs, env.subscribe(t, 3*i+j, fmt.Sprintf(`SELECT R.A, S.D FROM R, S WHERE R.%s = S.%s`, l, r)))
				}
			}
			env.eng.ResetLoads()
			rewriterTS := func(step string, want int64) {
				t.Helper()
				if got := sum(env.eng.RoleLoads(metrics.Rewriter, true)); got != want {
					t.Fatalf("%s: rewriter TS = %d, want %d", step, got, want)
				}
			}
			want := int64(len(qs)) * c.rewriters
			rewriterTS("subscribed", want)
			env.eng.FailNode(env.mostQueries(t, len(qs)))
			env.eng.LeaveNodeProtocol(env.mostQueries(t, len(qs)))
			env.net.RepairAll()
			rewriterTS("after a crash and a leave", want)
			for i, q := range qs {
				if err := env.eng.Unsubscribe(env.node(i), q); err != nil {
					t.Fatal(err)
				}
			}
			rewriterTS("unsubscribed", 0)
		})
	}
}

// mostQueries returns the alive node past the first skip that holds the most
// queries at its rewriter tables, and fails t where none holds one.
func (env *testEnv) mostQueries(t *testing.T, skip int) *chord.Node {
	t.Helper()
	var best *chord.Node
	most := 0
	for _, n := range env.nodes[skip:] {
		if q := env.eng.state(n).holding().queries; n.Alive() && q > most {
			best, most = n, q
		}
	}
	if best == nil {
		t.Fatal("no node past the subscribers holds a query")
	}
	return best
}

func TestPublishErrorPaths(t *testing.T) {
	env := newTestEnv(t, 16, Config{Algorithm: SAI})
	foreign := relation.MustTuple(relation.MustSchema("Foreign", "X"), relation.N(1))
	if _, err := env.eng.Publish(env.node(0), foreign); err == nil {
		t.Fatal("unknown relation accepted")
	}
	dead := env.node(3)
	env.net.Fail(dead)
	env.net.RepairAll()
	if _, err := env.eng.Publish(dead, rTuple(env, 1, 2, 3)); err == nil {
		t.Fatal("publish from dead node accepted")
	}
	if _, err := env.eng.Subscribe(dead, query.MustParse(env.catalog, `SELECT R.A FROM R, S WHERE R.B = S.E`)); err == nil {
		t.Fatal("subscribe from dead node accepted")
	}
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		StrategyRandom:    "random",
		StrategyMinRate:   "min-rate",
		StrategyMinDomain: "min-domain",
		StrategyLeft:      "left",
		Strategy(99):      "unknown",
	}
	for s, name := range want {
		if s.String() != name {
			t.Fatalf("Strategy(%d).String() = %q, want %q", s, s.String(), name)
		}
	}
	if Algorithm(99).String() == "" {
		t.Fatal("unknown algorithm renders empty")
	}
}
