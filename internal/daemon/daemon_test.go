package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"cqjoin"
)

func startServer(t *testing.T, cfg Config) (*Server, net.Conn) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() { _ = srv.Serve(ln) }()
	t.Cleanup(func() { _ = srv.Close() })
	for srv.Addr() == nil { // until Serve has taken ln, tests that ask srv.Addr() read nil
		time.Sleep(time.Millisecond)
	}

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return srv, conn
}

type client struct {
	t      *testing.T
	conn   net.Conn
	r      *bufio.Reader
	events []map[string]interface{}
}

func newClient(t *testing.T, conn net.Conn) *client {
	return &client{t: t, conn: conn, r: bufio.NewReader(conn)}
}

// call sends one request and returns its response; asynchronous
// notification events arriving in between are queued for nextEvent.
func (c *client) call(req map[string]interface{}) map[string]interface{} {
	c.t.Helper()
	b, _ := json.Marshal(req)
	if _, err := c.conn.Write(append(b, '\n')); err != nil {
		c.t.Fatalf("write: %v", err)
	}
	for {
		msg := c.read()
		if _, isEvent := msg["event"]; isEvent {
			c.events = append(c.events, msg)
			continue
		}
		return msg
	}
}

// nextEvent returns the oldest queued notification event, reading more
// lines if none is queued yet.
func (c *client) nextEvent() map[string]interface{} {
	c.t.Helper()
	for len(c.events) == 0 {
		msg := c.read()
		if _, isEvent := msg["event"]; isEvent {
			c.events = append(c.events, msg)
		}
	}
	ev := c.events[0]
	c.events = c.events[1:]
	return ev
}

func (c *client) read() map[string]interface{} {
	c.t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	line, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	var resp map[string]interface{}
	if err := json.Unmarshal([]byte(line), &resp); err != nil {
		c.t.Fatalf("bad response %q: %v", line, err)
	}
	return resp
}

func defaultConfig() Config {
	return Config{
		Nodes:     48,
		Algorithm: "sai",
		SchemaDSL: "Orders(Id,Customer,Product);Shipments(Id,Product,Depot)",
		Seed:      1,
	}
}

func TestDaemonEndToEnd(t *testing.T) {
	_, conn := startServer(t, defaultConfig())
	c := newClient(t, conn)

	if resp := c.call(map[string]interface{}{"op": "listen"}); resp["ok"] != true {
		t.Fatalf("listen: %v", resp)
	}
	resp := c.call(map[string]interface{}{
		"op": "subscribe", "node": 0,
		"sql": `SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`,
	})
	if resp["ok"] != true {
		t.Fatalf("subscribe: %v", resp)
	}
	key, _ := resp["key"].(string)
	if key == "" {
		t.Fatalf("no query key in %v", resp)
	}

	if resp := c.call(map[string]interface{}{
		"op": "publish", "node": 1, "relation": "Orders",
		"values": []interface{}{1, "acme", "widget"},
	}); resp["ok"] != true {
		t.Fatalf("publish: %v", resp)
	}
	if resp := c.call(map[string]interface{}{
		"op": "publish", "node": 2, "relation": "Shipments",
		"values": []interface{}{9, "widget", "rotterdam"},
	}); resp["ok"] != true {
		t.Fatalf("publish: %v", resp)
	}

	// The matching pair pushed a notification event to the listener.
	event := c.nextEvent()
	if event["event"] != "notification" || event["query"] != key {
		t.Fatalf("event = %v", event)
	}
	vals, _ := event["values"].([]interface{})
	if len(vals) != 2 || vals[0] != "acme" || vals[1] != "rotterdam" {
		t.Fatalf("event values = %v", vals)
	}

	stats := c.call(map[string]interface{}{"op": "stats"})
	if stats["ok"] != true || stats["notifications"].(float64) != 1 {
		t.Fatalf("stats = %v", stats)
	}
	if stats["hops"].(float64) <= 0 || stats["bytes"].(float64) <= 0 {
		t.Fatalf("stats missing traffic: %v", stats)
	}
	// The traffic again, split by message kind in the chord section: each
	// family's parts sum to its whole, and the tuples' index messages are
	// among them; no hinted send met a non-owner on a ring nothing changed.
	section, _ := stats["chord"].(map[string]interface{})
	sums := map[string]float64{}
	for name, v := range section {
		if family, kind, ok := strings.Cut(strings.TrimPrefix(name, "chord."), "."); ok {
			sums[family] += v.(float64)
			if kind == "al-index" && v.(float64) <= 0 {
				t.Fatalf("%s = %v", name, v)
			}
		}
	}
	for family, total := range map[string]string{"msgs": "messages", "hops": "hops", "bytes": "bytes"} {
		if section["chord."+family+".al-index"] == nil || sums[family] != stats[total].(float64) {
			t.Fatalf("chord.%s.<kind> sum to %v, %s = %v: %v", family, sums[family], total, stats[total], section)
		}
	}
	if section["chord.handbacks"] != 0.0 {
		t.Fatalf("chord.handbacks = %v on a ring nothing changed", section["chord.handbacks"])
	}
	// Evaluator-load summary: one match means some evaluator filtered.
	if stats["eval_load_max"].(float64) <= 0 {
		t.Fatalf("stats missing evaluator load: %v", stats)
	}
	if _, ok := stats["eval_load_gini"].(float64); !ok {
		t.Fatalf("stats missing evaluator Gini: %v", stats)
	}
	if stats["hot_keys"].(float64) != 0 {
		t.Fatalf("hot keys promoted with sharding disabled: %v", stats)
	}

	// Retraction through the protocol.
	if resp := c.call(map[string]interface{}{"op": "unsubscribe", "key": key}); resp["ok"] != true {
		t.Fatalf("unsubscribe: %v", resp)
	}
	c.call(map[string]interface{}{
		"op": "publish", "node": 3, "relation": "Orders",
		"values": []interface{}{2, "globex", "gears"},
	})
	c.call(map[string]interface{}{
		"op": "publish", "node": 4, "relation": "Shipments",
		"values": []interface{}{10, "gears", "hamburg"},
	})
	stats = c.call(map[string]interface{}{"op": "stats"})
	if stats["notifications"].(float64) != 1 {
		t.Fatalf("retracted query still notified: %v", stats)
	}
}

// The engine's counters reach the stats op: a node's third publication of a
// relation skips the two attributes no query reads, and a subscribe that
// gives one of them a reader takes that back.
func TestDaemonStatsReportEngineSilence(t *testing.T) {
	_, conn := startServer(t, defaultConfig())
	c := newClient(t, conn)
	call := func(req map[string]interface{}) {
		t.Helper()
		if resp := c.call(req); resp["ok"] != true {
			t.Fatalf("%v: %v", req, resp)
		}
	}
	publish := func(id int) {
		call(map[string]interface{}{"op": "publish", "node": 1, "relation": "Orders", "values": []interface{}{id, "acme", "widget"}})
	}
	engine := func() map[string]interface{} {
		t.Helper()
		section, _ := c.call(map[string]interface{}{"op": "stats"})["engine"].(map[string]interface{})
		return section
	}
	call(map[string]interface{}{"op": "subscribe", "node": 0,
		"sql": `SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`})
	for id := 1; id <= 3; id++ { // a walk, a hinted send that asks, a send that skips
		publish(id)
	}
	if got := engine(); got["engine.al_index_idle"] != 4.0 || got["engine.hints{al.silent}"] != 2.0 {
		t.Fatalf("engine stats after three publications: %v; want 4 idle al-index deliveries and 2 skipped", got)
	}
	call(map[string]interface{}{"op": "subscribe", "node": 0,
		"sql": `SELECT O.Id FROM Orders AS O, Shipments AS S WHERE O.Customer = S.Depot`})
	publish(4)
	if got := engine(); got["engine.revokes"] != 1.0 || got["engine.hints{al.silent}"] != 3.0 {
		t.Fatalf("engine stats after a subscribe on Orders.Customer: %v; want 1 revocation and only Id skipped since", got)
	}
}

// The engine's census reaches the stats op: what one subscription and one
// matching pair leave stored, summed over the nodes and at the fullest one,
// and the receiving codec's memo, empty in a process no socket feeds; so do
// the restarts of the evaluators' learned addresses, none.
func TestDaemonStatsReportEngineCensus(t *testing.T) {
	_, conn := startServer(t, defaultConfig())
	c := newClient(t, conn)
	for _, req := range []map[string]interface{}{
		{"op": "subscribe", "node": 0, "sql": `SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`},
		{"op": "publish", "node": 1, "relation": "Orders", "values": []interface{}{1, "acme", "widget"}},
		{"op": "publish", "node": 2, "relation": "Shipments", "values": []interface{}{9, "widget", "rotterdam"}},
	} {
		if resp := c.call(req); resp["ok"] != true {
			t.Fatalf("%v: %v", req, resp)
		}
	}
	engine, _ := c.call(map[string]interface{}{"op": "stats"})["engine"].(map[string]interface{})
	for name, want := range map[string]float64{
		"engine.census.alqt_queries.sum":      1,
		"engine.census.vlqt_rewrites.sum":     1,
		"engine.census.vlqt_rewrites.max":     1,
		"engine.census.vlqt_spelled_keys.sum": 0,
		"engine.census.vltt_tuples.sum":       1,
		"engine.census.delivered.sum":         1,
		"engine.census.delivered.max":         1,
		"engine.census.wire_memo_queries.sum": 0,
		"engine.census.wire_memo_parsed.sum":  0,
		"engine.census.wire_memo_strings.sum": 0,
		"engine.sub_ip_resets":                0,
	} {
		if got := engine[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}

func TestDaemonErrors(t *testing.T) {
	_, conn := startServer(t, defaultConfig())
	c := newClient(t, conn)

	if resp := c.call(map[string]interface{}{"op": "nope"}); resp["ok"] != false {
		t.Fatalf("unknown op accepted: %v", resp)
	}
	if resp := c.call(map[string]interface{}{"op": "subscribe", "sql": "not sql"}); resp["ok"] != false {
		t.Fatalf("bad sql accepted: %v", resp)
	}
	if resp := c.call(map[string]interface{}{"op": "publish", "relation": "Nope", "values": []interface{}{1}}); resp["ok"] != false {
		t.Fatalf("bad relation accepted: %v", resp)
	}
	if resp := c.call(map[string]interface{}{"op": "unsubscribe", "key": "missing"}); resp["ok"] != false {
		t.Fatalf("unknown key accepted: %v", resp)
	}
	// Garbage line.
	if _, err := c.conn.Write([]byte("{{{\n")); err != nil {
		t.Fatal(err)
	}
	if resp := c.read(); resp["ok"] != false || !strings.Contains(resp["error"].(string), "bad json") {
		t.Fatalf("garbage accepted: %v", resp)
	}
}

func TestDaemonMultiWay(t *testing.T) {
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
	c.call(map[string]interface{}{"op": "publish", "node": 1, "relation": "A", "values": []interface{}{1, 10}})
	c.call(map[string]interface{}{"op": "publish", "node": 2, "relation": "B", "values": []interface{}{2, 1}})
	c.call(map[string]interface{}{"op": "publish", "node": 3, "relation": "C", "values": []interface{}{0, 2}})
	stats := c.call(map[string]interface{}{"op": "stats"})
	if stats["notifications"].(float64) != 1 {
		t.Fatalf("multi-way chain did not complete: %v", stats)
	}
}

func TestParseSchemaDSL(t *testing.T) {
	cat, err := ParseSchemaDSL(" R(A, B) ; S(D,E) ")
	if err != nil {
		t.Fatalf("ParseSchemaDSL: %v", err)
	}
	if cat.Lookup("R") == nil || cat.Lookup("S") == nil {
		t.Fatal("schemas missing")
	}
	if cat.Lookup("R").Arity() != 2 {
		t.Fatal("attrs wrong")
	}
	for _, bad := range []string{"", "R", "R()", "(A)", "R(A"} {
		if _, err := ParseSchemaDSL(bad); err == nil {
			t.Fatalf("accepted %q", bad)
		}
	}
}

func TestParseAlgorithm(t *testing.T) {
	for name, want := range map[string]string{
		"sai": "SAI", "DAIQ": "DAI-Q", "dai-t": "DAI-T", "DaiV": "DAI-V", "": "SAI",
	} {
		alg, err := parseAlgorithm(name)
		if err != nil {
			t.Fatalf("parseAlgorithm(%q): %v", name, err)
		}
		if alg.String() != want {
			t.Fatalf("parseAlgorithm(%q) = %s, want %s", name, alg, want)
		}
	}
	if _, err := parseAlgorithm("bogus"); err == nil {
		t.Fatal("bogus algorithm accepted")
	}
}

func TestConcurrentClients(t *testing.T) {
	srv, conn := startServer(t, defaultConfig())
	c1 := newClient(t, conn)
	c1.call(map[string]interface{}{"op": "subscribe", "node": 0,
		"sql": `SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`})

	// A second client publishes concurrently with the first polling stats.
	conn2, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	c2 := newClient(t, conn2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			c2.call(map[string]interface{}{"op": "publish", "node": 1, "relation": "Orders",
				"values": []interface{}{i, "acme", "widget"}})
		}
	}()
	for i := 0; i < 10; i++ {
		if resp := c1.call(map[string]interface{}{"op": "stats"}); resp["ok"] != true {
			t.Fatalf("stats under load: %v", resp)
		}
	}
	<-done
}

// TestCloseDrainsClientConns pins Close's teardown of accepted client
// connections: Close ends every live conn (unblocking handlers parked in
// readLine), waits for their goroutines, and returns promptly; the client
// side observes its connection closing. Without the conns/connWG tracking,
// Close returned with every handler goroutine still blocked. A listening
// connection is flushed first: what was queued for it before Close reaches a
// client that reads, and its writer goroutine ends with Close too.
func TestCloseDrainsClientConns(t *testing.T) {
	srv, conn := startServer(t, defaultConfig())
	c := newClient(t, conn)
	if resp := c.call(map[string]interface{}{"op": "stats"}); resp["ok"] != true {
		t.Fatalf("stats: %v", resp)
	}
	// Queue more for a listener than its socket buffers hold while nobody
	// reads, so that Close finds events still in the queue.
	lconn, lr := listenRaw(t, srv)
	n := cqjoin.Notification{QueryKey: "q#1", Subscriber: "s", Values: []cqjoin.Value{cqjoin.S(strings.Repeat("x", 8<<10))}}
	const events = 1000 // 8 MB, under maxListenerBacklog
	for i := 0; i < events; i++ {
		srv.broadcast(n)
	}

	done := make(chan error, 1)
	go func() { done <- srv.Close() }()
	_ = lconn.SetReadDeadline(time.Now().Add(10 * time.Second))
	got := 0
	for {
		if _, err := lr.ReadSlice('\n'); err == bufio.ErrBufferFull {
			continue
		} else if err != nil {
			break
		}
		got++
	}
	if got != events {
		t.Fatalf("the listener received %d of the %d events queued before Close", got, events)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return; client handlers not drained")
	}
	stacks := make([]byte, 1<<20)
	if stacks = stacks[:runtime.Stack(stacks, true)]; bytes.Contains(stacks, []byte("writeLoop")) {
		t.Fatalf("a listener's writer outlived Close:\n%s", stacks)
	}

	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := c.r.ReadByte(); err == nil {
		t.Fatal("client connection still open after Close")
	}
}

// The replies a client reads, byte for byte, as the daemon sent them while
// encoding/json decoded its requests: a table of lines over one connection
// that listens, so the strings a publication carried come back in its
// notification, which precedes the publication's ack. A line encoding/json
// refuses is held only to the prefix of its reply (want ends in "*"): the
// reason is worded by whichever decoder refused it.
func TestRequestRepliesAreUnchanged(t *testing.T) {
	srv, conn := startServer(t, defaultConfig())
	r := bufio.NewReader(conn)
	const (
		sql     = `SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`
		badJSON = `{"error":"bad json: *`
	)
	sub, folded := srv.Cluster().Node(0).Key(), srv.Cluster().Node(3).Key()+"#1"
	for _, step := range []struct{ req, want string }{
		{`{"op":"listen"}`, `{"ok":true}`},
		{`{"op":"subscribe","node":0,"sql":"` + sql + `"}`, `{"key":"` + sub + `#1","ok":true}`},
		// Keys match case-folded: "ſ" folds to "S", the Kelvin sign to "K".
		{`{"OP":"subscribe","NoDe":3,"ſql":"SELECT O.Id, S.Id FROM Orders AS O, Shipments AS S WHERE O.Customer = S.Depot"}`, `{"key":"` + folded + `","ok":true}`},
		{`{"op":"publish","node":1,"relation":"Orders","values":[1,"acme","widget"]}`, `{"ok":true,"pubt":4}`},
		{"\t{ \"values\" : [ 9 ,\r\"widget\" , \"rotterdam\" ] , \"relation\":\"Shipments\", \"node\" : 2 ,\"op\":\"publish\" } ",
			`{"event":"notification","query":"` + sub + `#1","subscriber":"` + sub + `","values":["acme","rotterdam"]}` + "\n" + `{"ok":true,"pubt":5}`},
		// The last of duplicate keys wins; an unknown key's value is skipped,
		// a number out of float64's range included; null leaves a field as it
		// was, and a top-level null is the zero request.
		{`{"op":"nope","op":"publish","node":7,"node":1,"relation":"Shipments","relation":"Orders","values":[1],"values":[2,"dup","gears"]}`, `{"ok":true,"pubt":6}`},
		{`{"op":"publish","meta":{"a":[1,{"b":null}],"c":1e400,"d":"\ud800","e":true},"node":1,"relation":"Orders","values":[3,"nested","bolts"]}`, `{"ok":true,"pubt":7}`},
		{`{"op":"publish","node":null,"relation":"Orders","values":[4,"null-node","nuts"]}`, `{"ok":true,"pubt":8}`},
		{`{"op":"publish","relation":"Orders","values":[5,"no-node","nuts"]}`, `{"ok":true,"pubt":9}`},
		{`{"op":"publish","op":null,"node":-0,"relation":"Orders","relation":null,"values":[-0,"kept","nuts"]}`, `{"ok":true,"pubt":10}`},
		{`null`, `{"error":"unknown op \"\"","ok":false}`},
		{`{"op":"li\u0000sten"}`, `{"error":"unknown op \"li\\x00sten\"","ok":false}`},
		// Refusals, in Node.Publish's order: unknown relation, then an
		// unsupported value, then arity.
		{`{"op":"publish","node":48,"relation":"Orders","values":[6,"x","y"]}`, `{"error":"node 48 out of range [0,48)","ok":false}`},
		{`{"op":"subscribe","node":-1,"sql":"` + sql + `"}`, `{"error":"node -1 out of range [0,48)","ok":false}`},
		{`{"op":"publish","node":1,"relation":"Nope","values":[1,true]}`, `{"error":"cqjoin: unknown relation Nope","ok":false}`},
		{`{"op":"publish","node":1,"relation":"Orders","values":[1,2]}`, `{"error":"relation: tuple of Orders needs 3 values, got 2","ok":false}`},
		{`{"op":"publish","node":1,"relation":"Orders","values":[1,true]}`, `{"error":"cqjoin: unsupported value type bool for Orders","ok":false}`},
		{`{"op":"publish","node":1,"relation":"Orders","values":[null,"a","b"]}`, `{"error":"cqjoin: unsupported value type \u003cnil\u003e for Orders","ok":false}`},
		{`{"op":"publish","node":1,"relation":"Orders","values":[1,"a",[1]]}`, `{"error":"cqjoin: unsupported value type []interface {} for Orders","ok":false}`},
		{`{"op":"publish","node":1,"relation":"Orders","values":[{},"a",true]}`, `{"error":"cqjoin: unsupported value type map[string]interface {} for Orders","ok":false}`},
		{`{"op":"publish","node":1,"relation":"Orders","values":null}`, `{"error":"relation: tuple of Orders needs 3 values, got 0","ok":false}`},
		// Escapes, surrogate pairs (one broken, one lone), invalid UTF-8.
		{`{"op":"publish","node":1,"relation":"Orders","values":[1.5e3,"q\"uote é \u00e9 😀 \ud83d\ude00 \ud83d\u0041 \ud800A \udc00 <&> ` + "\xff\xc3(" + `","esc"]}`, `{"ok":true,"pubt":11}`},
		{`{"op":"publish","node":2,"relation":"Shipments","values":[1E-7,"esc","\\\/\b\f\n\r\t\u0000` + "\u2028" + ` é"]}`,
			`{"event":"notification","query":"` + sub + `#1","subscriber":"` + sub + `","values":["q\"uote é é 😀 😀 ` + "\ufffdA \ufffdA \ufffd" + ` \u003c\u0026\u003e ` + "\ufffd\ufffd(" + `","\\/\b\f\n\r\t\u0000\u2028 é"]}` + "\n" + `{"ok":true,"pubt":12}`},
		{`{"op":"unsubscribe","\u212aey":"` + folded + `"}`, `{"ok":true}`},
		{`{"op":"unsubscribe","key":"` + folded + `"}`, `{"error":"unknown query \"` + folded + `\"","ok":false}`},
		{`{{{`, badJSON},
		{`{"op":"publish","node":1,"relation":"Orders","values":[1e400,"a","b"]}`, badJSON},
		{`{"op":"publish","node":1,"relation":"Orders","values":[1,"a",[1e400]]}`, badJSON},
		{`{"op":"publish","node":1.5,"relation":"Orders","values":[1,"a","b"]}`, badJSON},
		{`{"op":"publish","node":"3","relation":"Orders","values":[1,"a","b"]}`, badJSON},
		{`{"op":"publish","node":1e2,"relation":"Orders","values":[1,"a","b"]}`, badJSON},
		{`{"op":"publish","node":9223372036854775808,"relation":"Orders","values":[1,"a","b"]}`, badJSON},
		{`{"op":"publish","node":1,"relation":"Orders","values":"1,a,b"}`, badJSON},
		{`{"op":5}`, badJSON},
		{`{"op":"listen"} x`, badJSON},
		{`{"op":"listen",}`, badJSON},
		{`{"op":"listen"`, badJSON},
		{`[{"op":"listen"}]`, badJSON},
		{"{\"op\":\"li\x01sten\"}", badJSON},
		{`{"op":"li\'sten"}`, badJSON},
		{`{"op":"listen"}`, `{"ok":true}`},
	} {
		if _, err := conn.Write([]byte(step.req + "\n")); err != nil {
			t.Fatal(err)
		}
		var got []string // the events, then the reply
		for {
			_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("%q: %v", step.req, err)
			}
			got = append(got, strings.TrimSuffix(line, "\n"))
			if !strings.HasPrefix(line, `{"event":`) {
				break
			}
		}
		reply := strings.Join(got, "\n")
		if prefix, ok := strings.CutSuffix(step.want, "*"); ok {
			if !strings.HasPrefix(reply, prefix) || len(got) != 1 {
				t.Errorf("%q:\n got %q\nwant %q...", step.req, reply, prefix)
			}
		} else if reply != step.want {
			t.Errorf("%q:\n got %q\nwant %q", step.req, reply, step.want)
		}
	}
}
