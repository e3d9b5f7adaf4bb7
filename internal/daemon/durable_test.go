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

// knownDelivered lists what s's engine knows as delivered
// (Engine.KnownDeliveryKeys). The daemon's listeners take the notifications,
// so the engine keeps none: every match is a bare identity,
// "Key(q)|value|…|leftPubT|rightPubT" — cut here to its content, in the shape
// the protocol events use — and, nothing ever resetting it, the count is
// theirs.
func knownDelivered(t *testing.T, s *Server) map[ackedEvent]bool {
	t.Helper()
	eng := s.Cluster().Engine()
	if n := len(eng.Notifications()); n != 0 {
		t.Fatalf("the engine keeps %d notifications the daemon's listeners took", n)
	}
	identities := eng.KnownDeliveryKeys()
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
// nodes (DESIGN.md §14.5); and it holds state for none of them either: the
// state its log replays for them goes back to the joiner once the overlay is
// up, and the checkpoint that follows keeps the next restart from replaying
// it at all (§14.6).
func TestDaemonSeedCrashRestartKeepsItsJoinView(t *testing.T) {
	a, b, cfgA, _, _ := seedAndJoiner(t, "")
	want := b.srv.members.view()
	if len(want.Procs) != 2 {
		t.Fatalf("the joiner holds %+v, want both processes", want)
	}
	if held := heldFor(a.srv); len(held) != 0 {
		t.Fatalf("the seed still holds state for the joiner's nodes %v after the hand-off", held)
	}

	kill(a)
	restarted := startOverlayProc(t, cfgA, nil)
	if got := restarted.srv.members.view(); !reflect.DeepEqual(got, want) {
		t.Fatalf("the restarted seed holds v%d %v, want v%d %v", got.Version, got.Procs, want.Version, want.Procs)
	}
	for i := 0; i < restarted.srv.Cluster().Size(); i++ {
		if restarted.srv.OwnsNode(i) == b.ownsNode(i) {
			t.Fatalf("node %d: the restarted seed owns it %v, the joiner %v", i, restarted.srv.OwnsNode(i), b.ownsNode(i))
		}
	}
	if held := heldFor(restarted.srv); len(held) != 0 {
		t.Fatalf("the restarted seed holds state for the joiner's nodes %v", held)
	}

	kill(restarted)
	again, err := New(cfgA)
	if err != nil {
		t.Fatalf("restart the seed again: %v", err)
	}
	defer again.Close()
	if held := heldFor(again); len(held) != 0 {
		t.Fatalf("the seed's state directory replays state for the joiner's nodes %v", held)
	}
}

// listenTaker binds a joiner's overlay listener whose address, joined to
// seed's view, takes over at least two nodes seed holds state for, and leaves
// seed at least two nodes to publish through: a joiner whose arc holds no
// state moves nothing, one that takes a single such node cannot tell a
// hand-back that gives up on a peer after one failure from one that tries
// every node, and one that takes the whole ring leaves the tests no seed node.
// Ownership follows the hash of the address, so the port is drawn again until
// both hold.
func listenTaker(t *testing.T, seed *overlayProc) net.Listener {
	t.Helper()
	ring := seed.srv.Cluster().Overlay()
	_, nodes := seed.srv.Cluster().Engine().ExportSnapshot(nil)
	for draw := 0; draw < 20; draw++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen joiner: %v", err)
		}
		view := newMembership(seed.addr, append(seed.srv.members.view().Procs, ln.Addr().String()), 1)
		taken, kept := 0, 0
		for _, n := range nodes {
			if view.ownerOf(ring.NodeByKey(n.Key).ID()) == ln.Addr().String() {
				taken++
			}
		}
		for _, n := range ring.Nodes() {
			if view.ownerOf(n.ID()) == seed.addr {
				kept++
			}
		}
		if taken >= 2 && kept >= 2 {
			return ln
		}
		_ = ln.Close()
	}
	t.Fatalf("no joiner address drawn takes two nodes %s holds state for and leaves it two", seed.addr)
	return nil
}

// heldFor lists the nodes s holds movable state for, as a checkpoint taken
// now would write them, that its view gives to another process.
func heldFor(s *Server) []string {
	var held []string
	_, nodes := s.Cluster().Engine().ExportSnapshot(nil)
	for _, n := range nodes {
		if s.members.ownerOf(s.Cluster().Overlay().NodeByKey(n.Key).ID()) != s.cfg.OverlayAddr {
			held = append(held, n.Key)
		}
	}
	return held
}

// seedAndJoiner starts a seed with a state directory, subscribes on every
// third node through it and publishes a matching pair, admits a joiner that
// takes some of that state over (with dirB as its state directory, empty for
// none), and publishes a second pair. Every pair goes through the seed: a
// tuple matches the queries stamped before it, and each process has a clock
// of its own (DESIGN.md §10.4), the fresh joiner's far behind the seed's.
func seedAndJoiner(t *testing.T, dirB string) (a, b *overlayProc, cfgA, cfgB Config, keys []string) {
	t.Helper()
	base := defaultConfig()
	lns, peers := listenOverlay(t, base, 1)
	cfgA = base
	cfgA.OverlayAddr, cfgA.Peers, cfgA.StateDir = peers[0], peers, t.TempDir()
	a = startOverlayProc(t, cfgA, lns[0])
	for i := 0; i < a.srv.Cluster().Size(); i += 3 {
		keys = append(keys, subscribeDaemon(t, a.c, i))
	}
	publishPair(t, []*overlayProc{a}, "pre-join")
	lnB := listenTaker(t, a)
	cfgB = joinerConfig(t, a, lnB)
	cfgB.StateDir = dirB
	b = startOverlayProc(t, cfgB, lnB)
	if err := b.srv.JoinOverlay(a.addr); err != nil {
		t.Fatalf("JoinOverlay: %v", err)
	}
	publishPair(t, []*overlayProc{a, b}, "post-join")
	return a, b, cfgA, cfgB, keys
}

// kill drops p's WAL descriptor with no checkpoint, as kill -9 does, and
// closes its sockets.
func kill(p *overlayProc) {
	p.srv.store.Abandon()
	_ = p.srv.Close()
}

// deliveredOnce checks what the processes know as delivered against the
// oracle: every query of keys notified for each of pairs matching pairs, and
// nothing else; knownDelivered refuses a process that counted one twice.
func deliveredOnce(t *testing.T, keys []string, pairs int, procs ...*Server) {
	t.Helper()
	seen := make(map[ackedEvent]bool)
	for _, s := range procs {
		for ev := range knownDelivered(t, s) {
			seen[ev] = true
		}
	}
	perKey := make(map[string][]string)
	for ev := range seen {
		perKey[ev.query] = append(perKey[ev.query], ev.values)
	}
	for _, k := range keys {
		if len(perKey[k]) != pairs {
			t.Fatalf("query %s was notified %d times, want %d: %v", k, len(perKey[k]), pairs, perKey[k])
		}
	}
	if len(seen) != len(keys)*pairs {
		t.Fatalf("%d notifications known as delivered, want %d", len(seen), len(keys)*pairs)
	}
}

// A seed restarted from its state directory hands back what its recovered view
// gives away at two crash points, and no notification is lost or delivered
// twice at either:
//   - its joiner is down when it restarts: the hand-back is not acked, the
//     seed keeps the state, and the next view event hands it back;
//   - it restarts from its state directory as it was after New and before the
//     checkpoint that followed the acked hand-back, as a kill between the two
//     leaves it: the joiner absorbs the second hand-back and its census does
//     not change.
func TestDaemonSeedRestartHandsBackAtItsCrashPoints(t *testing.T) {
	t.Run("joiner down", func(t *testing.T) {
		a, b, cfgA, cfgB, keys := seedAndJoiner(t, t.TempDir())
		kill(b)
		kill(a)
		srv, err := New(cfgA)
		if err != nil {
			t.Fatalf("restart the seed: %v", err)
		}
		failures := srv.reg.Counter("transport.rpc_failures")
		before := failures.Value()
		start := time.Now()
		a2 := serveOverlayProc(t, srv, nil)
		took := time.Since(start)
		held := heldFor(a2.srv)
		if len(held) < 2 {
			t.Fatalf("the restarted seed holds state for its joiner's nodes %v, want at least two to hand back", held)
		}
		t.Logf("the seed started its overlay in %v with its joiner down, keeping state for %v", took, held)
		// One failed hand-back tells the seed its joiner is down; every
		// further node it tried would spend a full RPC budget on it too.
		if f := failures.Value() - before; f > 1 {
			t.Fatalf("handing back %d nodes to a joiner that is down failed %d RPCs, want at most 1", len(held), f)
		}
		if took > transport.DefaultIOTimeout {
			t.Fatalf("starting the seed's overlay took %v, more than one transport IOTimeout (%v)", took, transport.DefaultIOTimeout)
		}
		b2 := startOverlayProc(t, cfgB, nil)
		// A member that joins again is admitted to the view it is in; the
		// view it gossips is the seed's next view event.
		if err := b2.srv.JoinOverlay(a2.addr); err != nil {
			t.Fatalf("JoinOverlay: %v", err)
		}
		if held := heldFor(a2.srv); len(held) != 0 {
			t.Fatalf("after a view event the seed still holds state for the joiner's nodes %v", held)
		}
		publishPair(t, []*overlayProc{a2, b2}, "after")
		deliveredOnce(t, keys, 3, a2.srv, b2.srv)
	})
	t.Run("killed between ack and checkpoint", func(t *testing.T) {
		a, b, cfgA, _, keys := seedAndJoiner(t, "")
		kill(a)
		srv, err := New(cfgA)
		if err != nil {
			t.Fatalf("restart the seed: %v", err)
		}
		if len(heldFor(srv)) == 0 {
			t.Fatal("the seed's log replays no state for its joiner's nodes: nothing was there to hand back")
		}
		cfgCopy := cfgA
		cfgCopy.StateDir = t.TempDir()
		files, err := os.ReadDir(cfgA.StateDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(cfgA.StateDir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(cfgCopy.StateDir, f.Name()), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		a2 := serveOverlayProc(t, srv, nil)
		if held := heldFor(a2.srv); len(held) != 0 {
			t.Fatalf("the restarted seed holds state for the joiner's nodes %v", held)
		}
		census := b.srv.Cluster().Engine().Census()

		kill(a2)
		a3 := startOverlayProc(t, cfgCopy, nil)
		if held := heldFor(a3.srv); len(held) != 0 {
			t.Fatalf("the seed restarted before its checkpoint holds state for the joiner's nodes %v", held)
		}
		if got := b.srv.Cluster().Engine().Census(); !reflect.DeepEqual(got, census) {
			t.Fatalf("a second hand-back changed the joiner's census:\n got %v\nwant %v", got, census)
		}
		publishPair(t, []*overlayProc{a3, b}, "after")
		deliveredOnce(t, keys, 3, a3.srv, b.srv)
		if d := b.srv.Cluster().Traffic().Duplicates("notification"); d != 0 {
			t.Fatalf("the joiner delivered %d duplicate notifications", d)
		}
	})
}

// A query retracted after the seed has handed its index to a joiner stays
// retracted when the seed restarts and hands back the copy its log resurrects,
// and when the joiner later leaves and hands every node back to the seed.
func TestDaemonRetractionSurvivesHandBack(t *testing.T) {
	a, b, cfgA, _, keys := seedAndJoiner(t, "")
	for _, key := range keys {
		if resp := a.c.call(map[string]interface{}{"op": "unsubscribe", "key": key}); resp["ok"] != true {
			t.Fatalf("unsubscribe %s: %v", key, resp)
		}
	}
	kill(a)
	a2 := startOverlayProc(t, cfgA, nil)
	notified := func() int { return a2.srv.Cluster().NotificationCount() + b.srv.Cluster().NotificationCount() }

	before := notified()
	publishPair(t, []*overlayProc{a2, b}, "restarted")
	if got := notified() - before; got != 0 {
		t.Fatalf("a matching pair notified %d times after the seed restarted, want 0", got)
	}
	if resp := b.c.call(map[string]interface{}{"op": "leave"}); resp["ok"] != true {
		t.Fatalf("leave: %v", resp)
	}
	publishPair(t, []*overlayProc{a2}, "left")
	if got := notified() - before; got != 0 {
		t.Fatalf("a matching pair notified %d times after the joiner left, want 0", got)
	}
	// The overlay still evaluates: a fresh query is notified.
	subscribeDaemon(t, a2.c, a2.nodeOwnedBy(t))
	publishPair(t, []*overlayProc{a2}, "fresh")
	if got := notified() - before; got != 1 {
		t.Fatalf("a fresh query's matching pair notified %d times, want 1", got)
	}
}
