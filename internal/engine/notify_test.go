package engine

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"cqjoin/internal/id"
	"cqjoin/internal/obs"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// Section 4.6: a subscriber that reconnects under a new IP address is first
// reached through the DHT (O(log N) hops); it replies with its new address
// and subsequent notifications take the one-hop direct path again.
func TestNotificationAfterIPChange(t *testing.T) {
	env := newTestEnv(t, 128, Config{Algorithm: SAI, Strategy: StrategyLeft})
	sub := env.node(0)
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)

	// First match: direct path, 1 hop.
	env.publish(t, 1, rTuple(env, 1, 7, 0))
	env.publish(t, 2, sTuple(env, 2, 7, 0))
	if got := env.net.Traffic().Hops(kindNotify); got != 1 {
		t.Fatalf("initial delivery hops = %d, want 1", got)
	}
	if got := env.net.Traffic().Messages("ip-update"); got != 0 {
		t.Fatalf("ip-update before any change: %d", got)
	}

	// The subscriber moves to a new address.
	sub.SetIP("sim://elsewhere")

	env.net.Traffic().Reset()
	env.publish(t, 3, sTuple(env, 3, 7, 0))
	if got := len(env.eng.Notifications()); got != 2 {
		t.Fatalf("notifications = %d, want 2", got)
	}
	// The stale-address delivery went through the DHT...
	if got := env.net.Traffic().Hops(kindNotify); got <= 1 {
		t.Fatalf("stale-IP delivery hops = %d, want > 1 (DHT route)", got)
	}
	// ...and the subscriber sent its new address back.
	if got := env.net.Traffic().Messages("ip-update"); got != 1 {
		t.Fatalf("ip-update messages = %d, want 1", got)
	}

	// The evaluator learned the address: the next delivery is direct again.
	env.net.Traffic().Reset()
	env.publish(t, 4, sTuple(env, 4, 7, 0))
	if got := env.net.Traffic().Hops(kindNotify); got != 1 {
		t.Fatalf("post-learning delivery hops = %d, want 1", got)
	}
	if got := env.net.Traffic().Messages("ip-update"); got != 0 {
		t.Fatalf("redundant ip-update: %d", got)
	}
}

// Notifications for several subscribers created by one event are grouped
// into one message per receiver (Section 4.6).
func TestNotificationGroupingPerSubscriber(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyLeft})
	// Two subscribers, same condition, two queries each.
	for i := 0; i < 2; i++ {
		env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		env.subscribe(t, 1, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	}
	env.publish(t, 5, rTuple(env, 1, 7, 0))
	env.net.Traffic().Reset()
	env.publish(t, 6, sTuple(env, 2, 7, 0))
	// Four notifications (two per subscriber) but only two messages.
	if got := len(env.eng.Notifications()); got != 4 {
		t.Fatalf("notifications = %d, want 4", got)
	}
	if got := env.net.Traffic().Messages(kindNotify); got != 2 {
		t.Fatalf("notification messages = %d, want 2 (grouped per subscriber)", got)
	}
}

func TestNotificationStringAndContentKey(t *testing.T) {
	env := newTestEnv(t, 32, Config{Algorithm: SAI})
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	env.publish(t, 1, rTuple(env, 1, 7, 0))
	env.publish(t, 2, sTuple(env, 2, 7, 0))
	ns := env.eng.Notifications()
	if len(ns) != 1 {
		t.Fatalf("notifications = %d", len(ns))
	}
	n := ns[0]
	if n.String() == "" || n.ContentKey() == "" {
		t.Fatal("empty rendering")
	}
	// ContentKey distinguishes values.
	other := ns[0]
	other.Values = nil
	if n.ContentKey() == other.ContentKey() {
		t.Fatal("content key ignores values")
	}
}

// However a batch is grouped — sorted in place, for up to smallTableMax
// subscribers, or through a map above that — subscribers are served in the
// order the batch first names them and each receives its notifications in
// batch order: the delivery sequence, which seeded runs replay, is the same.
func TestSendNotificationsKeepsOrderHoweverGrouped(t *testing.T) {
	for _, subscribers := range []int{1, 3, smallTableMax, smallTableMax + 1, 3 * smallTableMax} {
		scan := newTestEnv(t, 64, Config{Algorithm: SAI})
		byMap := newTestEnv(t, 64, Config{Algorithm: SAI})
		var batch []Notification
		var want []string
		// Interleaved — s0, s0 s1, s0 s1 s2, ... — with first-seen order the
		// reverse of key order.
		for round := 0; round < 4; round++ {
			for s := 0; s <= round*subscribers/3 && s < subscribers; s++ {
				batch = append(batch, Notification{
					QueryKey: scan.node(63-s).Key() + "#1", Subscriber: scan.node(63 - s).Key(),
					Values:   []relation.Value{relation.N(float64(len(batch)))},
					LeftPubT: int64(len(batch)), subscriberIP: scan.node(63 - s).IP(),
				})
			}
		}
		for s := 0; s < subscribers; s++ {
			for _, n := range batch {
				if n.Subscriber == scan.node(63-s).Key() {
					want = append(want, n.ContentKey())
				}
			}
		}
		scan.eng.state(scan.node(40)).sendNotifications(slices.Clone(batch))
		byMap.eng.state(byMap.node(40)).sendNotificationsByMap(slices.Clone(batch))
		if got := scan.eng.DeliveredContentKeys(); !slices.Equal(got, want) {
			t.Fatalf("%d subscribers: delivered %v, want %v", subscribers, got, want)
		}
		if got := byMap.eng.DeliveredContentKeys(); !slices.Equal(got, want) {
			t.Fatalf("%d subscribers, map path: delivered %v, want %v", subscribers, got, want)
		}
	}
}

// Section 4.7.2 moves a node's identifier (Engine.MoveNode) and keeps its key,
// so its queries keep their subscriber. An evaluator's first delivery to it
// after the move walks the DHT to Successor(Hash(key)), no longer the
// subscriber: that node forwards the batch to the subscriber, online
// elsewhere, instead of storing it as mail no reconnect would replay.
func TestMovedSubscriberGetsItsMail(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI})
	sub := env.node(0)
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	moved, err := env.eng.MoveNode(sub, env.node(32).ID().AddPow2(0))
	if err != nil {
		t.Fatal(err)
	}
	if home := env.net.OracleSuccessor(id.Hash(moved.Key())); home == moved {
		t.Fatalf("%s still owns its key's identifier after the move", moved)
	}
	for i := 0; i < 2; i++ {
		env.publish(t, 1+i, rTuple(env, float64(i), float64(7+i), 0))
		env.publish(t, 10+i, sTuple(env, float64(i), float64(7+i), 0))
	}
	if got := len(env.eng.Notifications()); got != 2 {
		t.Fatalf("the moved subscriber got %d of its 2 notifications", got)
	}
	if stored := env.eng.Census()["stored_notifs"].Sum; stored != 0 {
		t.Fatalf("%d notifications stored for a subscriber that is online", stored)
	}
}

// An evaluator's learned subscriber addresses are bounded: past subIPsMax
// entries they restart, counted, and a subscriber whose address went with
// them is reached through the DHT once more and its address relearned.
func TestLearnedAddressesRestartWhenFull(t *testing.T) {
	reg := obs.NewRegistry()
	env := newTestEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyLeft, Obs: reg})
	sub := env.node(0)
	env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	sub.SetIP("sim://elsewhere")
	env.publish(t, 1, rTuple(env, 1, 7, 0))
	match := func(i int) { env.publish(t, 2, sTuple(env, float64(i), 7, 0)) }
	match(1) // the evaluator learns the new address
	var eval *nodeState
	for _, n := range env.nodes {
		if st := env.eng.state(n); st.subIPs[sub.Key()] == sub.IP() {
			eval = st
		}
	}
	if eval == nil {
		t.Fatal("no evaluator learned the subscriber's address")
	}
	eval.mu.Lock()
	for i := 0; eval.subIPs[sub.Key()] != ""; i++ {
		eval.learnIP(fmt.Sprintf("stranger-%d", i), "sim://stranger")
	}
	eval.mu.Unlock()
	if got := reg.Counter("engine.sub_ip_resets").Value(); got != 1 {
		t.Fatalf("%d restarts of the learned addresses, want 1", got)
	}
	env.net.Traffic().Reset()
	match(2) // the address went: through the DHT, and learned again
	if got, hops := env.net.Traffic().Messages("ip-update"), env.net.Traffic().Hops(kindNotify); got != 1 || hops <= 1 {
		t.Fatalf("after the restart: %d ip-updates and %d notification hops, want 1 and a DHT route", got, hops)
	}
	env.net.Traffic().Reset()
	match(3)
	if hops := env.net.Traffic().Hops(kindNotify); hops != 1 {
		t.Fatalf("relearned, the delivery took %d hops, want 1", hops)
	}
	if got := len(env.eng.Notifications()); got != 3 {
		t.Fatalf("the subscriber got %d of its 3 notifications", got)
	}
	if got := env.eng.Census()["sub_ips"].Max; got > subIPsMax {
		t.Fatalf("an evaluator holds %d learned addresses, bound %d", got, subIPsMax)
	}
}

// notifications builds, match by match, what buildNotification builds, in
// two arrays sized exactly: a match whose projection fails has none, and no
// notification's Values reaches past its own length.
func TestNotificationsIsBuildNotificationPerMatch(t *testing.T) {
	env := newTestEnv(t, 64, Config{Algorithm: SAI})
	var ms []match
	for s := 0; s < 3; s++ {
		q := env.subscribe(t, 60+s, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		for i := 0; i < 3; i++ {
			ms = append(ms, match{
				q: q, side: query.SideLeft,
				trig:  rTuple(env, float64(i), 7, 0).WithPubT(int64(100 + i)),
				other: sTuple(env, float64(s), 7, 0).WithPubT(int64(200 + s)),
			})
		}
		// S as the left tuple: the projection fails, and no notification is made.
		ms = append(ms, match{q: q, side: query.SideLeft, trig: sTuple(env, 0, 7, 0), other: sTuple(env, 1, 7, 0)})
	}
	var want []Notification
	for _, m := range ms {
		if n, err := buildNotification(m.q, m.side, m.trig, m.other); err == nil {
			want = append(want, n)
		}
	}
	got := notifications(ms)
	if len(want) != 9 || !reflect.DeepEqual(got, want) {
		t.Fatalf("notifications built\n%v\nbuildNotification\n%v", got, want)
	}
	for i, n := range got {
		if cap(n.Values) != len(n.Values) {
			t.Fatalf("notification %d: Values has capacity %d past its %d values", i, cap(n.Values), len(n.Values))
		}
	}
}

// A batch's values are one array and each notification's Values a segment
// capped at its own length: an append through one, or a write into it, leaves
// every other notification of its batch as it was — in the record
// (Notifications), in an OnNotify callback, and as a receiver decodes them.
func TestBatchValuesDoNotAlias(t *testing.T) {
	stream := func(env *testEnv) {
		env.subscribe(t, 0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
		for i := 0; i < 4; i++ {
			env.publish(t, 1+i, rTuple(env, float64(i), 7, 0))
		}
		env.publish(t, 9, sTuple(env, 50, 7, 0)) // one evaluator batch of four
	}
	keys := func(ns []Notification) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = n.ContentKey()
		}
		return out
	}
	// mutate appends to ns[i].Values and then overwrites what it holds; it
	// fails unless every other notification of ns still says want's key.
	mutate := func(what string, ns []Notification, want []string, i int) {
		t.Helper()
		ns[i].Values = append(ns[i].Values, relation.S("appended"))
		for j, n := range ns {
			if j != i && n.ContentKey() != want[j] {
				t.Fatalf("%s: an append to notification %d changed notification %d to %s", what, i, j, n.ContentKey())
			}
		}
		for k := range ns[i].Values {
			ns[i].Values[k] = relation.S("overwritten")
		}
		for j, n := range ns {
			if j != i && n.ContentKey() != want[j] {
				t.Fatalf("%s: a write into notification %d changed notification %d to %s", what, i, j, n.ContentKey())
			}
		}
	}

	polled := newTestEnv(t, 32, Config{Algorithm: SAI})
	stream(polled)
	want := keys(polled.eng.Notifications())
	if len(want) != 4 {
		t.Fatalf("the stream delivered %d notifications, want 4", len(want))
	}
	for i := range want {
		ns := polled.eng.Notifications()
		ns[i].Values = append(ns[i].Values, relation.S("appended"))
		if got := keys(polled.eng.Notifications()); !slices.Equal(got, want) {
			t.Fatalf("an append to notification %d of Notifications() changed the record to %v, want %v", i, got, want)
		}
	}
	mutate("Notifications()", polled.eng.Notifications(), want, 0)

	consumed := newTestEnv(t, 32, Config{Algorithm: SAI})
	var got []string
	consumed.eng.OnNotify(func(n Notification) {
		got = append(got, n.ContentKey())
		n.Values = append(n.Values, relation.S("appended"))
		for k := range n.Values {
			n.Values[k] = relation.S("overwritten")
		}
	})
	stream(consumed)
	if !slices.Equal(got, want) {
		t.Fatalf("callbacks that append to and write into what they receive saw %v, want %v", got, want)
	}

	fresh := newTestEnv(t, 32, Config{Algorithm: SAI})
	stream(fresh)
	batch := fresh.eng.Notifications()
	var w wire.Buffer
	if err := EncodeMessage(&w, &notifyMsg{Subscriber: batch[0].Subscriber, Batch: batch}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		m, err := DecodeMessage(wire.NewReader(w.Bytes()), fresh.catalog)
		if err != nil {
			t.Fatal(err)
		}
		mutate("a decoded batch", m.(*notifyMsg).Batch, want, i)
	}
}
