package daemon

import (
	"fmt"
	"net"
	"strings"
	"testing"

	"cqjoin/internal/id"
)

// TestDaemonMultiUnsubscribe is the regression test for the protocol bug
// where "subscribe-multi" never recorded the query, so "unsubscribe"
// always answered "unknown query" and the chain kept firing forever.
func TestDaemonMultiUnsubscribe(t *testing.T) {
	cfg := defaultConfig()
	cfg.SchemaDSL = "A(x,y);B(x,y);C(x,y)"
	_, conn := startServer(t, cfg)
	c := newClient(t, conn)

	resp := c.call(map[string]interface{}{
		"op": "subscribe-multi", "node": 0,
		"sql": `SELECT A.y, C.y FROM A, B, C WHERE A.x = B.y AND B.x = C.y`,
	})
	if resp["ok"] != true {
		t.Fatalf("subscribe-multi: %v", resp)
	}
	key, _ := resp["key"].(string)
	if key == "" {
		t.Fatalf("no query key in %v", resp)
	}
	// Drive the pipeline one stage deep before retracting.
	c.call(map[string]interface{}{"op": "publish", "node": 1, "relation": "A", "values": []interface{}{1, 10}})
	c.call(map[string]interface{}{"op": "publish", "node": 2, "relation": "B", "values": []interface{}{2, 1}})
	if resp := c.call(map[string]interface{}{"op": "unsubscribe", "key": key}); resp["ok"] != true {
		t.Fatalf("unsubscribe of a multi-way query: %v", resp)
	}
	// Neither the completing tuple nor a whole fresh chain may notify.
	c.call(map[string]interface{}{"op": "publish", "node": 3, "relation": "C", "values": []interface{}{0, 2}})
	c.call(map[string]interface{}{"op": "publish", "node": 4, "relation": "A", "values": []interface{}{1, 11}})
	c.call(map[string]interface{}{"op": "publish", "node": 5, "relation": "B", "values": []interface{}{2, 1}})
	c.call(map[string]interface{}{"op": "publish", "node": 6, "relation": "C", "values": []interface{}{0, 2}})
	stats := c.call(map[string]interface{}{"op": "stats"})
	if stats["notifications"].(float64) != 0 {
		t.Fatalf("retracted multi-way query still notified: %v", stats)
	}
	if resp := c.call(map[string]interface{}{"op": "unsubscribe", "key": key}); resp["ok"] != false {
		t.Fatalf("double unsubscribe accepted: %v", resp)
	}
}

// TestDaemonSubscribeTakesAChain: "subscribe" takes a chain of any arity,
// the same as "subscribe-multi", and "unsubscribe" retracts it.
func TestDaemonSubscribeTakesAChain(t *testing.T) {
	cfg := defaultConfig()
	cfg.SchemaDSL = "A(x,y);B(x,y);C(x,y)"
	_, conn := startServer(t, cfg)
	c := newClient(t, conn)

	resp := c.call(map[string]interface{}{
		"op": "subscribe", "node": 0,
		"sql": `SELECT A.y, C.y FROM A, B, C WHERE A.x = B.y AND B.x = C.y`,
	})
	key, _ := resp["key"].(string)
	if resp["ok"] != true || key == "" {
		t.Fatalf("subscribe of a chain: %v", resp)
	}
	publishChain := func(y float64) {
		c.call(map[string]interface{}{"op": "publish", "node": 1, "relation": "A", "values": []interface{}{1, y}})
		c.call(map[string]interface{}{"op": "publish", "node": 2, "relation": "B", "values": []interface{}{2, 1}})
		c.call(map[string]interface{}{"op": "publish", "node": 3, "relation": "C", "values": []interface{}{0, 2}})
	}
	publishChain(10)
	if stats := c.call(map[string]interface{}{"op": "stats"}); stats["notifications"].(float64) != 1 {
		t.Fatalf("the chain did not complete: %v", stats)
	}
	if resp := c.call(map[string]interface{}{"op": "unsubscribe", "key": key}); resp["ok"] != true {
		t.Fatalf("unsubscribe of a chain: %v", resp)
	}
	publishChain(11)
	if stats := c.call(map[string]interface{}{"op": "stats"}); stats["notifications"].(float64) != 1 {
		t.Fatalf("the retracted chain still notified: %v", stats)
	}
}

// TestDaemonNodeOutOfRange is the regression test for req.Node reaching
// the cluster unvalidated: out-of-range ids used to wrap modulo the
// overlay size and silently act on some other node.
func TestDaemonNodeOutOfRange(t *testing.T) {
	_, conn := startServer(t, defaultConfig())
	c := newClient(t, conn)

	sql := `SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`
	for _, node := range []int{-1, 48, 1 << 20} {
		for _, req := range []map[string]interface{}{
			{"op": "subscribe", "node": node, "sql": sql},
			{"op": "subscribe-multi", "node": node, "sql": sql},
			{"op": "publish", "node": node, "relation": "Orders", "values": []interface{}{1, "acme", "widget"}},
		} {
			resp := c.call(req)
			if resp["ok"] != false {
				t.Fatalf("%s with node %d accepted: %v", req["op"], node, resp)
			}
			if msg, _ := resp["error"].(string); !strings.Contains(msg, "out of range") {
				t.Fatalf("%s with node %d: error %q does not name the range", req["op"], node, msg)
			}
		}
	}
	// Nothing was subscribed or published along the way.
	stats := c.call(map[string]interface{}{"op": "stats"})
	if stats["ok"] != true || stats["notifications"].(float64) != 0 {
		t.Fatalf("stats after rejected ops: %v", stats)
	}
}

// TestDaemonLineTooLong is the regression test for the unchecked
// bufio.Scanner error: an oversized line used to kill the connection
// silently. Now it gets a structured error and the connection lives on.
func TestDaemonLineTooLong(t *testing.T) {
	_, conn := startServer(t, defaultConfig())
	c := newClient(t, conn)

	huge := make([]byte, maxLineBytes+16)
	for i := range huge {
		huge[i] = 'x'
	}
	huge[len(huge)-1] = '\n'
	if _, err := c.conn.Write(huge); err != nil {
		t.Fatalf("write oversized line: %v", err)
	}
	resp := c.read()
	if resp["ok"] != false || !strings.Contains(resp["error"].(string), "line too long") {
		t.Fatalf("oversized line: %v", resp)
	}
	// The same connection still serves requests.
	if resp := c.call(map[string]interface{}{"op": "stats"}); resp["ok"] != true {
		t.Fatalf("connection dead after oversized line: %v", resp)
	}
}

// overlayProc is one daemon process of a multi-process overlay test:
// the in-process server, a connected protocol client, and its overlay
// address.
type overlayProc struct {
	srv        *Server
	c          *client
	addr       string
	clientAddr string
}

// ownsNode reports whether this process owns ring position i under its
// current membership view.
func (p *overlayProc) ownsNode(i int) bool {
	return p.srv.members.ownerOf(p.srv.Cluster().Overlay().NodeAt(i).ID()) == p.addr
}

// nodeOwnedBy returns some ring position owned by this process, other
// than the excluded ones. Ownership is successor-based over the hashed
// process addresses, so tests discover positions instead of assuming a
// layout.
func (p *overlayProc) nodeOwnedBy(t *testing.T, exclude ...int) int {
	t.Helper()
	for i := 0; i < p.srv.Cluster().Size(); i++ {
		skip := false
		for _, e := range exclude {
			if i == e {
				skip = true
				break
			}
		}
		if !skip && p.ownsNode(i) {
			return i
		}
	}
	t.Fatalf("process %s owns no eligible node", p.addr)
	return -1
}

// startOverlayProc builds one daemon process around an already-bound
// overlay listener — or, given none, binds cfg.OverlayAddr once New has
// returned, as cqjoind does: New's replay makes a peer call back, and a
// listener bound before would hold those calls unserved — and connects a
// protocol client to it.
func startOverlayProc(t *testing.T, cfg Config, ln net.Listener) *overlayProc {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New server %s: %v", cfg.OverlayAddr, err)
	}
	return serveOverlayProc(t, srv, ln)
}

// serveOverlayProc starts the overlay of a server New has built, as
// startOverlayProc does, and connects a protocol client to it.
func serveOverlayProc(t *testing.T, srv *Server, ln net.Listener) *overlayProc {
	t.Helper()
	addr := srv.cfg.OverlayAddr
	t.Cleanup(func() { _ = srv.Close() })
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			t.Fatalf("listen overlay %s: %v", addr, err)
		}
	}
	if err := srv.StartOverlay(ln); err != nil {
		t.Fatalf("start overlay %s: %v", addr, err)
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen client %s: %v", addr, err)
	}
	go func() { _ = srv.Serve(cln) }()
	conn, err := net.Dial("tcp", cln.Addr().String())
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &overlayProc{srv: srv, c: newClient(t, conn), addr: addr, clientAddr: cln.Addr().String()}
}

// listenOverlay binds count overlay listeners on loopback whose addresses,
// taken as a founding view, give every process at least two ring positions:
// the tests subscribe through one node of a process and publish through two.
// Ownership follows the hash of the addresses, so two random ports that hash
// next to each other leave one process with fewer (about one draw in sixty
// with two processes and 48 nodes); the ports are then drawn again. Nothing
// but the addresses is needed: no server has started yet.
func listenOverlay(t *testing.T, base Config, count int) ([]net.Listener, []string) {
	t.Helper()
	probe, err := New(base) // a single-process server, for the node keys
	if err != nil {
		t.Fatalf("New probe server: %v", err)
	}
	defer probe.Close()
	const draws = 10
	for draw := 1; ; draw++ {
		lns := make([]net.Listener, count)
		peers := make([]string, count)
		for i := range lns {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen overlay %d: %v", i, err)
			}
			lns[i] = ln
			peers[i] = ln.Addr().String()
		}
		view := newMembership(peers[0], peers, 1)
		owned := make(map[string]int, count)
		for i := 0; i < probe.Cluster().Size(); i++ {
			owned[view.ownerOf(probe.Cluster().Overlay().NodeAt(i).ID())]++
		}
		fewest := owned[peers[0]]
		for _, p := range peers {
			fewest = min(fewest, owned[p])
		}
		if fewest >= 2 || draw == draws {
			return lns, peers
		}
		for _, ln := range lns {
			_ = ln.Close()
		}
	}
}

// startOverlayProcs builds count daemon processes sharing one overlay
// with a static initial membership.
func startOverlayProcs(t *testing.T, base Config, count int) []*overlayProc {
	t.Helper()
	lns, peers := listenOverlay(t, base, count)
	procs := make([]*overlayProc, count)
	for i, ln := range lns {
		cfg := base
		cfg.OverlayAddr = peers[i]
		cfg.Peers = peers
		procs[i] = startOverlayProc(t, cfg, ln)
	}
	return procs
}

// startOverlayPair builds two daemon processes' worth of servers sharing
// one overlay. Returns one connected client per server.
func startOverlayPair(t *testing.T, base Config) (*client, *client) {
	t.Helper()
	procs := startOverlayProcs(t, base, 2)
	return procs[0].c, procs[1].c
}

// TestDaemonTwoProcessOverlay is the acceptance test for multi-process
// mode: two servers form one overlay; a query subscribed on a node owned
// by process A is matched by tuples published through process B, and the
// notification event surfaces at A's listener.
func TestDaemonTwoProcessOverlay(t *testing.T) {
	procs := startOverlayProcs(t, defaultConfig(), 2)
	a, b := procs[0], procs[1]
	cA, cB := a.c, b.c

	if resp := cA.call(map[string]interface{}{"op": "listen"}); resp["ok"] != true {
		t.Fatalf("listen: %v", resp)
	}
	// Ownership is successor-based over the hashed peer addresses, so the
	// test discovers who owns what instead of assuming a layout.
	subNode := a.nodeOwnedBy(t)
	resp := cA.call(map[string]interface{}{
		"op": "subscribe", "node": subNode,
		"sql": `SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`,
	})
	if resp["ok"] != true {
		t.Fatalf("subscribe on A: %v", resp)
	}
	key := resp["key"].(string)

	// Ownership is enforced: B refuses to act through A's node.
	if resp := cB.call(map[string]interface{}{
		"op": "publish", "node": subNode, "relation": "Orders", "values": []interface{}{1, "x", "y"},
	}); resp["ok"] != false || !strings.Contains(resp["error"].(string), "hosted by peer") {
		t.Fatalf("B published through A's node: %v", resp)
	}

	pub1 := b.nodeOwnedBy(t)
	pub2 := b.nodeOwnedBy(t, pub1)
	if resp := cB.call(map[string]interface{}{
		"op": "publish", "node": pub1, "relation": "Orders", "values": []interface{}{1, "acme", "widget"},
	}); resp["ok"] != true {
		t.Fatalf("publish Orders on B: %v", resp)
	}
	if resp := cB.call(map[string]interface{}{
		"op": "publish", "node": pub2, "relation": "Shipments", "values": []interface{}{9, "widget", "rotterdam"},
	}); resp["ok"] != true {
		t.Fatalf("publish Shipments on B: %v", resp)
	}

	// The cross-process match surfaces at A's listener.
	event := cA.nextEvent()
	if event["event"] != "notification" || event["query"] != key {
		t.Fatalf("event = %v", event)
	}
	vals, _ := event["values"].([]interface{})
	if len(vals) != 2 || vals[0] != "acme" || vals[1] != "rotterdam" {
		t.Fatalf("event values = %v", vals)
	}

	// B's deliveries crossed real sockets: its stats carry transport
	// metrics with at least one dial and some frame traffic, plus the
	// membership view and a clean ring report.
	stats := cB.call(map[string]interface{}{"op": "stats"})
	tm, ok := stats["transport"].(map[string]interface{})
	if !ok {
		t.Fatalf("stats carry no transport metrics: %v", stats)
	}
	if tm["transport.dials"].(float64) == 0 || tm["transport.frame_bytes_out"].(float64) == 0 {
		t.Fatalf("no cross-process traffic in metrics: %v", tm)
	}
	for name := range tm {
		if !strings.HasPrefix(name, "transport.") {
			t.Fatalf("stats section \"transport\" carries %s", name)
		}
	}
	// The codec's memo counters sit beside them in a section of their own
	// (which messages cross, and so what they read, depends on the ports).
	if cm, _ := stats["codec"].(map[string]interface{}); cm["codec.memo_hits"] == nil || cm["codec.memo_misses"] == nil {
		t.Fatalf("stats carry no codec memo counters: %v", stats)
	}
	// The engine's census counts what that memo holds: something in each
	// process that missed in it, nothing in one that never did.
	for _, c := range []*client{cA, cB} {
		st := c.call(map[string]interface{}{"op": "stats"})
		cm, _ := st["codec"].(map[string]interface{})
		em, _ := st["engine"].(map[string]interface{})
		held := 0.0
		for _, name := range []string{"queries", "parsed", "strings"} {
			v, ok := em["engine.census.wire_memo_"+name+".sum"].(float64)
			if !ok {
				t.Fatalf("stats carry no engine.census.wire_memo_%s: %v", name, em)
			}
			held += v
		}
		if missed := cm["codec.memo_misses"].(float64); (missed > 0) != (held > 0) {
			t.Fatalf("the memo missed %v times and holds %v entries", missed, held)
		}
	}
	mem, ok := stats["membership"].(map[string]interface{})
	if !ok {
		t.Fatalf("stats carry no membership: %v", stats)
	}
	if procsList, _ := mem["procs"].([]interface{}); len(procsList) != 2 {
		t.Fatalf("membership procs: %v", mem)
	}
	if stats["ring_ok"] != true {
		t.Fatalf("ring not ok: %v", stats["ring"])
	}
}

// publishPair publishes one Orders/Shipments pair matching the standing
// query through the first live process that owns a ring position. The
// product value is unique per call so each pair yields exactly one
// notification.
func publishPair(t *testing.T, procs []*overlayProc, tag string) {
	t.Helper()
	for _, p := range procs {
		for i := 0; i < p.srv.Cluster().Size(); i++ {
			if !p.ownsNode(i) {
				continue
			}
			if resp := p.c.call(map[string]interface{}{
				"op": "publish", "node": i, "relation": "Orders",
				"values": []interface{}{1, "cust-" + tag, "prod-" + tag},
			}); resp["ok"] != true {
				t.Fatalf("publish Orders %s via %s: %v", tag, p.addr, resp)
			}
			if resp := p.c.call(map[string]interface{}{
				"op": "publish", "node": i, "relation": "Shipments",
				"values": []interface{}{2, "prod-" + tag, "depot-" + tag},
			}); resp["ok"] != true {
				t.Fatalf("publish Shipments %s via %s: %v", tag, p.addr, resp)
			}
			return
		}
	}
	t.Fatal("no live process owns any node")
}

// TestDaemonJoinLeaveMidWorkload is the acceptance test for dynamic
// membership: a third process joins a running 2-process overlay between
// publishes, then one of the founders leaves, and across both transitions
// every published match is notified exactly once — nothing lost (state
// handed off with the moving arcs), nothing duplicated (idempotent merge
// plus the engine's dedup ledger).
func TestDaemonJoinLeaveMidWorkload(t *testing.T) {
	procs := startOverlayProcs(t, defaultConfig(), 2)
	a, b := procs[0], procs[1]

	// Subscribe through whichever founder owns a node.
	var subProc *overlayProc
	for _, p := range procs {
		for i := 0; i < p.srv.Cluster().Size(); i++ {
			if p.ownsNode(i) {
				subProc = p
				if resp := p.c.call(map[string]interface{}{
					"op": "subscribe", "node": i,
					"sql": `SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`,
				}); resp["ok"] != true {
					t.Fatalf("subscribe: %v", resp)
				}
				break
			}
		}
		if subProc != nil {
			break
		}
	}
	if subProc == nil {
		t.Fatal("no process owns any node")
	}

	publishPair(t, procs, "pre-join")

	// A third process joins mid-workload, configured from a live peer.
	oc := a.c.call(map[string]interface{}{"op": "overlay-config"})
	if oc["ok"] != true {
		t.Fatalf("overlay-config: %v", oc)
	}
	lnC, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen overlay C: %v", err)
	}
	var peersC []string
	for _, p := range oc["peers"].([]interface{}) {
		peersC = append(peersC, p.(string))
	}
	cfgC := Config{
		Nodes:        int(oc["nodes"].(float64)),
		Algorithm:    oc["algorithm"].(string),
		SchemaDSL:    oc["schema"].(string),
		UseJFRT:      oc["jfrt"].(bool),
		Seed:         int64(oc["seed"].(float64)),
		OverlayAddr:  lnC.Addr().String(),
		Peers:        peersC,
		JoinExisting: true,
	}
	c := startOverlayProc(t, cfgC, lnC)
	if err := c.srv.JoinOverlay(a.addr); err != nil {
		t.Fatalf("JoinOverlay: %v", err)
	}
	procs = append(procs, c)

	publishPair(t, procs, "post-join")

	// Founder B leaves voluntarily; its arcs (and their state) move to the
	// remaining owners.
	if resp := b.c.call(map[string]interface{}{"op": "leave"}); resp["ok"] != true {
		t.Fatalf("leave: %v", resp)
	}
	live := []*overlayProc{a, c}

	publishPair(t, live, "post-leave")

	// Exactly one notification per published pair, across every process
	// that ever hosted the subscriber — none lost, none duplicated.
	total := 0
	for _, p := range procs {
		total += p.srv.Cluster().NotificationCount()
		if d := p.srv.Cluster().Traffic().Duplicates("notification"); d != 0 {
			t.Fatalf("process %s delivered %d duplicate notifications", p.addr, d)
		}
	}
	if total != 3 {
		t.Fatalf("published 3 matching pairs, delivered %d notifications", total)
	}

	// The membership converged on both survivors: version 3 (join, then
	// leave, over the initial view), two members, and a clean ring.
	for _, p := range live {
		stats := p.c.call(map[string]interface{}{"op": "stats"})
		mem, ok := stats["membership"].(map[string]interface{})
		if !ok {
			t.Fatalf("stats carry no membership: %v", stats)
		}
		if v := mem["version"].(float64); v != 3 {
			t.Fatalf("membership version = %v, want 3", v)
		}
		if members, _ := mem["procs"].([]interface{}); len(members) != 2 {
			t.Fatalf("membership procs = %v, want 2 members", members)
		}
		if stats["ring_ok"] != true {
			t.Fatalf("ring not ok on %s: %v", p.addr, stats["ring"])
		}
	}
}

// TestDaemonOverlayConfig checks the op "-join" uses to copy a peer's
// configuration, and that a misconfigured peer list is rejected.
func TestDaemonOverlayConfig(t *testing.T) {
	cA, _ := startOverlayPair(t, defaultConfig())
	resp := cA.call(map[string]interface{}{"op": "overlay-config"})
	if resp["ok"] != true {
		t.Fatalf("overlay-config: %v", resp)
	}
	if resp["nodes"].(float64) != 48 || resp["algorithm"] != "sai" || resp["seed"].(float64) != 1 {
		t.Fatalf("overlay-config fields: %v", resp)
	}
	if peers, _ := resp["peers"].([]interface{}); len(peers) != 2 {
		t.Fatalf("overlay-config peers: %v", resp)
	}
	if schema, _ := resp["schema"].(string); !strings.Contains(schema, "Orders") {
		t.Fatalf("overlay-config schema: %v", resp)
	}

	bad := defaultConfig()
	bad.OverlayAddr = "127.0.0.1:1"
	bad.Peers = []string{"127.0.0.1:2", "127.0.0.1:3"}
	if _, err := New(bad); err == nil || !strings.Contains(err.Error(), "not in the peer list") {
		t.Fatalf("self-less peer list accepted: %v", err)
	}
}

// TestDaemonSingleProcessStatsHaveNoTransport pins the single-process
// protocol surface: no overlay, no transport section in stats — but the
// daemon's own client-socket metrics and the codec's memo counters, which
// exist in every mode, each in the section named after its layer.
func TestDaemonSingleProcessStatsHaveNoTransport(t *testing.T) {
	_, conn := startServer(t, defaultConfig())
	c := newClient(t, conn)
	c.call(map[string]interface{}{"op": "listen"})
	stats := c.call(map[string]interface{}{"op": "stats"})
	if _, has := stats["transport"]; has {
		t.Fatalf("single-process stats carry transport metrics: %v", stats)
	}
	for section, names := range map[string][]string{
		"daemon": {"daemon.listeners", "daemon.listener_queue_bytes", "daemon.listener_queue_hwm_bytes", "daemon.listener_dropped", "daemon.listener_writes"},
		"codec":  {"codec.memo_hits", "codec.memo_misses", "codec.memo_resets"},
	} {
		got, _ := stats[section].(map[string]interface{})
		for _, name := range names {
			if _, ok := got[name].(float64); !ok {
				t.Fatalf("stats section %q has no %s: %v", section, name, stats)
			}
		}
	}
	if got := stats["daemon"].(map[string]interface{})["daemon.listeners"]; got != 1.0 {
		t.Fatalf("daemon.listeners = %v with one listening connection", got)
	}
	if resp := c.call(map[string]interface{}{"op": "overlay-config"}); resp["ok"] != true {
		t.Fatalf("overlay-config: %v", resp)
	}
}

// TestStatsMetricNamesAreFixed: the metric names a daemon's stats reports
// are fixed once the daemon is up. Only a vector's {label} entries and the
// traffic ledger's per-kind entries grow with what the daemon has seen; a
// metric named from run-time data — a peer, a connection, a query — fails
// here. Each process is read at start, after a run of publications, and
// after subscribes, unsubscribes, listeners come and go and more
// publications.
func TestStatsMetricNamesAreFixed(t *testing.T) {
	procs := startOverlayProcs(t, defaultConfig(), 2)
	names := func() []map[string]bool {
		out := make([]map[string]bool, len(procs))
		for i, p := range procs {
			out[i] = make(map[string]bool)
			for layer, v := range p.c.call(map[string]interface{}{"op": "stats"}) {
				section, _ := v.(map[string]interface{})
				for name := range section {
					byKind := strings.HasPrefix(name, "chord.msgs.") || strings.HasPrefix(name, "chord.hops.") || strings.HasPrefix(name, "chord.bytes.")
					if strings.HasPrefix(name, layer+".") && !strings.Contains(name, "{") && !byKind {
						out[i][name] = true
					}
				}
			}
		}
		return out
	}
	publish := func(round string, n int) {
		for i := 0; i < n; i++ {
			publishPair(t, procs, fmt.Sprintf("%s%d", round, i))
		}
	}
	subscribe := func(p *overlayProc) string {
		resp := p.c.call(map[string]interface{}{"op": "subscribe", "node": p.nodeOwnedBy(t), "sql": ordersShipmentsSQL})
		if resp["ok"] != true {
			t.Fatalf("subscribe via %s: %v", p.addr, resp)
		}
		return resp["key"].(string)
	}

	up := names()
	for i, p := range procs {
		for _, name := range []string{"daemon.listeners", "codec.memo_hits", "engine.revokes", "engine.census.delivered.sum", "transport.dials", "chord.handbacks"} {
			if !up[i][name] {
				t.Fatalf("%s: stats at start carry no %s: %v", p.addr, name, up[i])
			}
		}
	}
	subscribe(procs[0])
	publish("a", 8)
	reads := [][]map[string]bool{names()}
	for _, p := range procs {
		conn, err := net.Dial("tcp", p.clientAddr)
		if err != nil {
			t.Fatalf("dial %s: %v", p.clientAddr, err)
		}
		if resp := newClient(t, conn).call(map[string]interface{}{"op": "listen"}); resp["ok"] != true {
			t.Fatalf("listen: %v", resp)
		}
		key := subscribe(p)
		publish("b"+p.addr, 2)
		if resp := p.c.call(map[string]interface{}{"op": "unsubscribe", "key": key}); resp["ok"] != true {
			t.Fatalf("unsubscribe: %v", resp)
		}
		_ = conn.Close()
	}
	publish("c", 8)
	reads = append(reads, names())
	for r, read := range reads {
		for i := range procs {
			for name := range read[i] {
				if !up[i][name] {
					t.Errorf("%s, read %d: %s, not there at start", procs[i].addr, r+1, name)
				}
			}
			for name := range up[i] {
				if !read[i][name] {
					t.Errorf("%s, read %d: %s gone", procs[i].addr, r+1, name)
				}
			}
		}
	}
}

// TestDaemonBooksARefusedDelivery: a process refuses a delivery for a node its
// view no longer gives it, and nothing re-sends it (cqjoind runs with no retry
// budget), so the sender books the loss, and its stats report it. X owns the
// rewriter of Orders.Product in the founding view, then takes a view in which
// P owns everything; P's publication of Orders walks to X, which refuses it.
func TestDaemonBooksARefusedDelivery(t *testing.T) {
	procs := startOverlayProcs(t, defaultConfig(), 2)
	rewriter := procs[0].srv.Cluster().Overlay().OracleSuccessor(id.Hash("Orders+Product"))
	x, p := procs[0], procs[1]
	if !x.srv.owns(rewriter) {
		x, p = p, x
	}
	x.srv.members.mu.Lock()
	x.srv.members.install(x.srv.members.version+1, p.addr, []string{p.addr})
	x.srv.members.mu.Unlock()

	if resp := p.c.call(map[string]interface{}{
		"op": "publish", "node": p.nodeOwnedBy(t), "relation": "Orders", "values": []interface{}{1, "acme", "widget"},
	}); resp["ok"] != true {
		t.Fatalf("publish through %s: %v", p.addr, resp)
	}
	if lost, _ := p.c.call(map[string]interface{}{"op": "stats"})["lost"].(float64); lost < 1 {
		t.Fatalf("stats report %v lost after %s refused a delivery, want at least 1", lost, x.addr)
	}
}
