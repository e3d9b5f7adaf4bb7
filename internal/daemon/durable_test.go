package daemon

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cqjoin/internal/transport"
)

// ackedEvent is one notification a client actually received — the unit the
// zero-loss guarantees below are stated over.
type ackedEvent struct {
	query  string
	values string
}

func eventOf(m map[string]interface{}) ackedEvent {
	return ackedEvent{query: fmt.Sprint(m["query"]), values: fmt.Sprint(m["values"])}
}

// knownDelivered lists what s's engine knows as delivered, as a checkpoint
// taken now would write it. The daemon's listeners take the notifications, so
// the engine keeps none: every match is a bare identity,
// "Key(q)|value|…|leftPubT|rightPubT" — cut here to its content, in the shape
// the protocol events use — and, nothing ever resetting it, the count is
// theirs. (The snapshot's meta message is of an unexported type with exported
// fields.)
func knownDelivered(t *testing.T, s *Server) map[ackedEvent]bool {
	t.Helper()
	meta, _ := s.Cluster().Engine().ExportSnapshot(nil)
	if n := reflect.ValueOf(meta).FieldByName("Sink").Len(); n != 0 {
		t.Fatalf("the engine keeps %d notifications the daemon's listeners took", n)
	}
	identities := reflect.ValueOf(meta).FieldByName("Delivered").Interface().([]string)
	if got := s.Cluster().NotificationCount(); got != len(identities) {
		t.Fatalf("the engine counts %d notifications and knows %d as delivered", got, len(identities))
	}
	set := make(map[ackedEvent]bool)
	for _, identity := range identities {
		fields := strings.Split(identity, "|")
		if len(fields) < 3 {
			t.Fatalf("delivered identity %q", identity)
		}
		ev := ackedEvent{query: fields[0], values: fmt.Sprint(fields[1 : len(fields)-2])}
		if set[ev] {
			t.Fatalf("two delivered identities for %+v", ev)
		}
		set[ev] = true
	}
	return set
}

// subscribePublish drives one subscription and pairs matching pairs
// through the protocol client, returning the query key.
func subscribeDaemon(t *testing.T, c *client, node int) string {
	t.Helper()
	resp := c.call(map[string]interface{}{
		"op": "subscribe", "node": node,
		"sql": `SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`,
	})
	if resp["ok"] != true {
		t.Fatalf("subscribe: %v", resp)
	}
	return resp["key"].(string)
}

func publishMatch(t *testing.T, c *client, node int, tag string) {
	t.Helper()
	if resp := c.call(map[string]interface{}{
		"op": "publish", "node": node, "relation": "Orders",
		"values": []interface{}{1, "cust-" + tag, "prod-" + tag},
	}); resp["ok"] != true {
		t.Fatalf("publish Orders %s: %v", tag, resp)
	}
	if resp := c.call(map[string]interface{}{
		"op": "publish", "node": node, "relation": "Shipments",
		"values": []interface{}{2, "prod-" + tag, "depot-" + tag},
	}); resp["ok"] != true {
		t.Fatalf("publish Shipments %s: %v", tag, resp)
	}
}

// TestDaemonStateDirCrashRecovery kills a single-process daemon the way
// kill -9 does — the WAL descriptor dropped with no checkpoint — and
// restarts it from the state directory: every acknowledged operation must
// be back (each notification counted and known as delivered, so that it can
// never be delivered twice; live subscriptions), and the restored
// subscription must keep matching new tuples.
func TestDaemonStateDirCrashRecovery(t *testing.T) {
	cfg := defaultConfig()
	cfg.StateDir = t.TempDir()
	cfg.SnapshotEvery = 8 // cross at least one checkpoint mid-workload

	srv, conn := startServer(t, cfg)
	c := newClient(t, conn)
	if resp := c.call(map[string]interface{}{"op": "listen"}); resp["ok"] != true {
		t.Fatalf("listen: %v", resp)
	}
	key := subscribeDaemon(t, c, 0)
	acked := make(map[ackedEvent]bool)
	for i := 0; i < 12; i++ {
		publishMatch(t, c, 1+i%4, fmt.Sprintf("crash-%d", i))
		ev := c.nextEvent()
		if ev["query"] != key {
			t.Fatalf("event for %v, want %v", ev["query"], key)
		}
		acked[eventOf(ev)] = true
	}

	// kill -9: no checkpoint, no close, just the descriptor gone.
	srv.store.Abandon()
	_ = srv.Close()

	restarted, err := New(cfg)
	if err != nil {
		t.Fatalf("restart from state dir: %v", err)
	}
	info := restarted.Recovery()
	if info.SnapshotLSN == 0 && info.Replayed == 0 {
		t.Fatalf("nothing recovered: %+v", info)
	}
	got := knownDelivered(t, restarted)
	for ev := range acked {
		if !got[ev] {
			t.Fatalf("acknowledged notification lost across crash: %+v (recovered %d)", ev, len(got))
		}
	}

	// The restored subscription still matches fresh tuples end to end.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = restarted.Serve(ln) }()
	t.Cleanup(func() { _ = restarted.Close() })
	conn2, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = conn2.Close() })
	c2 := newClient(t, conn2)
	if resp := c2.call(map[string]interface{}{"op": "listen"}); resp["ok"] != true {
		t.Fatalf("listen after restart: %v", resp)
	}
	publishMatch(t, c2, 2, "post-restart")
	ev := c2.nextEvent()
	if ev["query"] != key {
		t.Fatalf("restored subscription did not fire: %v", ev)
	}

	// The restored store keeps logging: a second unclean crash and restart
	// must still have everything, including the post-restart match.
	acked[eventOf(ev)] = true
	restarted.store.Abandon()
	_ = restarted.Close()
	again, err := New(cfg)
	if err != nil {
		t.Fatalf("second restart: %v", err)
	}
	t.Cleanup(func() { _ = again.Close() })
	got = knownDelivered(t, again)
	for ev := range acked {
		if !got[ev] {
			t.Fatalf("notification lost across second crash: %+v", ev)
		}
	}
}

// TestDaemonShutdownZeroLoss pins the SIGINT/SIGTERM contract: Shutdown —
// the path cmd/cqjoind's signal handler runs — checkpoints and closes the
// store, so a signaled daemon loses zero acknowledged notifications and
// the next start replays nothing (the snapshot covers the whole log).
func TestDaemonShutdownZeroLoss(t *testing.T) {
	cfg := defaultConfig()
	cfg.StateDir = t.TempDir()

	srv, conn := startServer(t, cfg)
	c := newClient(t, conn)
	if resp := c.call(map[string]interface{}{"op": "listen"}); resp["ok"] != true {
		t.Fatalf("listen: %v", resp)
	}
	key := subscribeDaemon(t, c, 0)
	acked := make(map[ackedEvent]bool)
	for i := 0; i < 6; i++ {
		publishMatch(t, c, 1+i, fmt.Sprintf("sig-%d", i))
		ev := c.nextEvent()
		acked[eventOf(ev)] = true
	}
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	restarted, err := New(cfg)
	if err != nil {
		t.Fatalf("restart after shutdown: %v", err)
	}
	t.Cleanup(func() { _ = restarted.Close() })
	info := restarted.Recovery()
	if info.Replayed != 0 {
		t.Fatalf("clean shutdown left %d unsnapshotted wal records", info.Replayed)
	}
	if info.SnapshotLSN == 0 {
		t.Fatalf("no snapshot after shutdown: %+v", info)
	}
	got := knownDelivered(t, restarted)
	for ev := range acked {
		if !got[ev] {
			t.Fatalf("acknowledged notification lost across shutdown: %+v", ev)
		}
	}
	if len(got) != len(acked) {
		t.Fatalf("recovered %d notifications, acked %d", len(got), len(acked))
	}
	// The subscription itself survived: every recovered notification names
	// the key the pre-shutdown subscribe returned.
	for ev := range got {
		if ev.query != key {
			t.Fatalf("recovered notification for unknown query %q, want %q", ev.query, key)
		}
	}
}

// TestDaemonMultiProcessCrashRestart kills one process of a two-process
// overlay mid-workload and restarts it from its state directory under the
// same overlay address: the restarted process replays its log, re-owns the
// same arcs under the unchanged membership view, holds every notification
// it had acknowledged, and keeps evaluating — while its peer absorbs the
// replay-driven duplicate deliveries idempotently.
func TestDaemonMultiProcessCrashRestart(t *testing.T) {
	base := defaultConfig()
	lns, peers := listenOverlay(t, base, 2)
	dirs := []string{t.TempDir(), t.TempDir()}
	procs := make([]*overlayProc, 2)
	for i, ln := range lns {
		cfg := base
		cfg.OverlayAddr = peers[i]
		cfg.Peers = peers
		cfg.StateDir = dirs[i]
		cfg.SnapshotEvery = 8
		procs[i] = startOverlayProc(t, cfg, ln)
	}
	a, b := procs[0], procs[1]

	// Subscribe on a node owned by B, publish through both processes.
	subNode := b.nodeOwnedBy(t)
	key := subscribeDaemon(t, b.c, subNode)
	for i := 0; i < 6; i++ {
		publishPair(t, procs, fmt.Sprintf("mp-%d", i))
	}
	before := knownDelivered(t, b.srv)
	if len(before) == 0 {
		t.Fatal("no notifications delivered before the crash")
	}

	// kill -9 process B.
	b.srv.store.Abandon()
	_ = b.srv.Close()

	// Restart it from its state directory under the same overlay address,
	// bound once New has returned: New replays B's log, whose re-sends make
	// A call back to B, and a listener bound before would accept those calls
	// with nobody serving them until each timed out.
	cfgB := base
	cfgB.OverlayAddr = b.addr
	cfgB.Peers = peers
	cfgB.StateDir = dirs[1]
	cfgB.SnapshotEvery = 8
	start := time.Now()
	b2 := startOverlayProc(t, cfgB, nil)
	if took := time.Since(start); took > transport.DefaultIOTimeout {
		t.Fatalf("restarting B took %v, more than one transport IOTimeout (%v): a replay waited out a callback nobody served", took, transport.DefaultIOTimeout)
	}
	info := b2.srv.Recovery()
	if info.SnapshotLSN == 0 && info.Replayed == 0 {
		t.Fatalf("nothing recovered on restart: %+v", info)
	}
	after := knownDelivered(t, b2.srv)
	for ev := range before {
		if !after[ev] {
			t.Fatalf("notification lost across process crash: %+v", ev)
		}
	}

	// The peer must not have double-delivered under the replay's re-sends.
	if d := a.srv.Cluster().Traffic().Duplicates("notification"); d != 0 {
		t.Fatalf("peer delivered %d duplicate notifications", d)
	}

	// The overlay keeps evaluating across the restart: a fresh matching
	// pair published through the survivor notifies the restored subscriber.
	live := []*overlayProc{a, b2}
	publishPair(t, live, "mp-post")
	count := 0
	for ev := range knownDelivered(t, b2.srv) {
		if ev.query == key {
			count++
		}
	}
	if count != len(before)+1 {
		t.Fatalf("restored subscriber has %d notifications, want %d", count, len(before)+1)
	}
}

// A state directory written before interest marks existed (the durable
// package's state-pr25 corpus: three standing SAI queries, no mark) recovers
// in a single-process daemon, whose engine holds every rewriter and re-derives
// the marks. An overlay process cannot set the marks its peers' rewriters need
// — and would stop matching without a word — so it refuses the directory by
// name instead of starting.
func TestDaemonParentWrittenStateDir(t *testing.T) {
	parentDir := func() string {
		dir := t.TempDir()
		for _, name := range []string{"snapshot.bin", "wal.log"} {
			data, err := os.ReadFile(filepath.Join("..", "durable", "testdata", "state-pr25", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return dir
	}
	cfg := Config{Nodes: 32, Algorithm: "sai", SchemaDSL: "R(A,B,C);S(D,E,F)", Seed: 19, SnapshotEvery: -1}

	cfg.StateDir = parentDir()
	srv, conn := startServer(t, cfg)
	if info := srv.Recovery(); info.DerivedMarks != 3 {
		t.Fatalf("recovered %+v, want the three marks of the snapshot's queries re-derived", info)
	}
	c := newClient(t, conn)
	before := srv.Cluster().NotificationCount()
	for _, pub := range []map[string]interface{}{
		{"op": "publish", "node": 3, "relation": "R", "values": []interface{}{1000, 2000, 3000}},
		{"op": "publish", "node": 3, "relation": "S", "values": []interface{}{1000, 4000, 5000}},
	} {
		if resp := c.call(pub); resp["ok"] != true {
			t.Fatalf("publish: %v", resp)
		}
	}
	if got := srv.Cluster().NotificationCount() - before; got != 1 {
		t.Fatalf("a fresh pair joining under R.A = S.D delivered %d notifications after recovery, want 1", got)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = ln.Close() }()
	cfg.StateDir = parentDir()
	cfg.OverlayAddr = ln.Addr().String()
	cfg.Peers = []string{cfg.OverlayAddr}
	if refused, err := New(cfg); err == nil {
		_ = refused.Close()
		t.Fatal("an overlay process started from a state directory whose queries hold no interest marks")
	} else if !strings.Contains(err.Error(), cfg.StateDir) || !strings.Contains(err.Error(), "interest marks") {
		t.Fatalf("the refusal does not name the directory and the reason: %v", err)
	}
}

// A standing query is retracted by its key after a restart as before one: the
// engine keeps it where the snapshot and the log find it. A graceful restart
// restores it from the snapshot, where it still matches and then retracts; the
// retraction is logged, so after a crash it replays, and a fresh matching pair
// notifies nobody.
func TestDaemonStateDirUnsubscribesARestoredQuery(t *testing.T) {
	cfg := defaultConfig()
	cfg.StateDir = t.TempDir()
	srv, conn := startServer(t, cfg)
	key := subscribeDaemon(t, newClient(t, conn), 0)
	if err := srv.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	restarted, conn := startServer(t, cfg)
	c := newClient(t, conn)
	before := restarted.Cluster().NotificationCount()
	publishMatch(t, c, 1, "restored")
	if got := restarted.Cluster().NotificationCount() - before; got != 1 {
		t.Fatalf("a matching pair notified %d times after the restart, want 1", got)
	}
	if resp := c.call(map[string]interface{}{"op": "unsubscribe", "key": key}); resp["ok"] != true {
		t.Fatalf("unsubscribe %s after a restart: %v", key, resp)
	}
	restarted.store.Abandon() // kill -9
	_ = restarted.Close()

	again, conn := startServer(t, cfg)
	c = newClient(t, conn)
	before = again.Cluster().NotificationCount()
	publishMatch(t, c, 2, "retracted")
	if got := again.Cluster().NotificationCount() - before; got != 0 {
		t.Fatalf("a matching pair notified %d times after the crash: the retraction of %s did not replay", got, key)
	}
	if resp := c.call(map[string]interface{}{"op": "unsubscribe", "key": key}); resp["ok"] == true {
		t.Fatalf("%s retracted a second time", key)
	}
}

// A seed that admits a joiner logs the view it answers with, so killed and
// restarted it holds the two-process view and owns none of the joiner's
// nodes (DESIGN.md §14.5).
func TestDaemonSeedCrashRestartKeepsItsJoinView(t *testing.T) {
	base := defaultConfig()
	lns, peers := listenOverlay(t, base, 1)
	cfgA := base
	cfgA.OverlayAddr, cfgA.Peers, cfgA.StateDir = peers[0], peers, t.TempDir()
	a := startOverlayProc(t, cfgA, lns[0])
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen overlay B: %v", err)
	}
	b := startOverlayProc(t, joinerConfig(t, a, lnB), lnB)
	if err := b.srv.JoinOverlay(a.addr); err != nil {
		t.Fatalf("JoinOverlay: %v", err)
	}
	want := b.srv.members.view()
	if len(want.Procs) != 2 {
		t.Fatalf("the joiner holds %+v, want both processes", want)
	}

	a.srv.store.Abandon() // kill -9
	_ = a.srv.Close()
	restarted, err := New(cfgA)
	if err != nil {
		t.Fatalf("restart the seed: %v", err)
	}
	t.Cleanup(func() { _ = restarted.Close() })
	if got := restarted.members.view(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the restarted seed holds v%d %v, want v%d %v", got.Version, got.Procs, want.Version, want.Procs)
	}
	for i := 0; i < restarted.Cluster().Size(); i++ {
		if restarted.OwnsNode(i) == b.ownsNode(i) {
			t.Fatalf("node %d: the restarted seed owns it %v, the joiner %v", i, restarted.OwnsNode(i), b.ownsNode(i))
		}
	}
}
