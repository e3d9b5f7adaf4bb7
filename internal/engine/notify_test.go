package engine

import (
	"fmt"
	"slices"
	"testing"

	"cqjoin/internal/id"
	"cqjoin/internal/obs"
	"cqjoin/internal/relation"
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

// However a batch is grouped — by scanning, for up to smallTableMax
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

// An evaluator's learned subscriber addresses are bounded as idCache is: past
// subIPsMax entries they restart, counted, and a subscriber whose address went
// with them is reached through the DHT once more and its address relearned.
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
