package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"net"
	"testing"
	"time"

	"cqjoin"
)

// mapEventLine is the reference: the line json.Encoder wrote for the map the
// event was before it had an encoder of its own. ok is false when
// encoding/json refuses the values (NaN, ±Inf).
func mapEventLine(n cqjoin.Notification) (line []byte, ok bool) {
	vals := make([]interface{}, len(n.Values))
	for i, v := range n.Values {
		if v.Kind() == cqjoin.NumberKind {
			vals[i] = v.Num()
		} else {
			vals[i] = v.Str()
		}
	}
	var want bytes.Buffer
	err := json.NewEncoder(&want).Encode(map[string]interface{}{
		"event":      "notification",
		"query":      n.QueryKey,
		"subscriber": n.Subscriber,
		"values":     vals,
	})
	return want.Bytes(), err == nil
}

// listenRaw dials srv, issues "listen" and consumes its acknowledgement.
func listenRaw(t *testing.T, srv *Server) (net.Conn, *bufio.Reader) {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	if _, err := conn.Write([]byte(`{"op":"listen"}` + "\n")); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if ack, err := r.ReadString('\n'); err != nil || ack != `{"ok":true}`+"\n" {
		t.Fatalf("listen ack = %q, %v", ack, err)
	}
	return conn, r
}

// broadcast encodes the event line itself and queues the same bytes for
// every listener. Clients must not see the difference: for values that
// exercise every corner of encoding/json's string and number encoders, the
// line — from the encoder, and as it arrives on two listening sockets — is
// byte for byte what json.Encoder produced for the map.
func TestBroadcastBytesMatchMapEncoding(t *testing.T) {
	notifs := []cqjoin.Notification{
		{QueryKey: "peer3#1", Subscriber: "peer3", Values: []cqjoin.Value{cqjoin.N(17), cqjoin.S("rotterdam")}},
		{QueryKey: `k"<&>`, Subscriber: "s\u2028\u2029\x00\\", Values: []cqjoin.Value{
			cqjoin.S("<script>&amp;\xff\t\n"), cqjoin.N(1e21), cqjoin.N(1e-7), cqjoin.N(-0.0), cqjoin.N(0.1 + 0.2), cqjoin.N(123456789012),
		}},
		{QueryKey: "\b\f\r\x1f\x7f", Subscriber: "a\u2028b\u2029c\ufffd\xc3(\xe2\x82", Values: []cqjoin.Value{
			cqjoin.N(1e-6), cqjoin.N(9.999999e-7), cqjoin.N(999999999999999999999), cqjoin.N(-1e21), cqjoin.N(1e-10), cqjoin.N(1e-100),
			cqjoin.N(math.MaxFloat64), cqjoin.N(math.SmallestNonzeroFloat64), cqjoin.N(math.Copysign(0, -1)), cqjoin.S("日本語 ✓"),
		}},
		{QueryKey: "", Subscriber: "", Values: []cqjoin.Value{}},
		{QueryKey: "nil-values", Subscriber: "s"},
	}
	srv, _ := startServer(t, defaultConfig())
	_, a := listenRaw(t, srv)
	_, b := listenRaw(t, srv)
	for _, n := range notifs {
		want, _ := mapEventLine(n)
		if got, ok := appendEvent(nil, n); !ok || !bytes.Equal(got, want) {
			t.Fatalf("event line changed:\n got %q\nwant %q", got, want)
		}
		srv.broadcast(n)
		for _, r := range []*bufio.Reader{a, b} {
			if got, err := r.ReadBytes('\n'); err != nil || !bytes.Equal(got, want) {
				t.Fatalf("listener received %q, %v\nwant %q", got, err, want)
			}
		}
	}
	// A value with no JSON form: nothing is sent, as before.
	srv.broadcast(cqjoin.Notification{QueryKey: "nan", Values: []cqjoin.Value{cqjoin.N(1), cqjoin.N(math.NaN())}})
	srv.broadcast(notifs[0])
	want, _ := mapEventLine(notifs[0])
	if got, err := a.ReadBytes('\n'); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("after an unencodable event the listener received %q, %v", got, err)
	}
}

// FuzzEventEncoding holds appendEvent to encoding/json on arbitrary strings
// and float bit patterns: the same bytes, and refusal (NaN, ±Inf) exactly
// when encoding/json refuses.
func FuzzEventEncoding(f *testing.F) {
	f.Add("peer3#1", "peer3", "rotterdam", math.Float64bits(17), math.Float64bits(1e21))
	f.Add(`k"<&>`, "s\x00\\", "<script>\xff\t\n\u2028", math.Float64bits(1e-7), math.Float64bits(-0.0))
	f.Add("\b\f\r\x1f\x7f", "\xe2\x80", "\u2029\ufffd", math.Float64bits(math.NaN()), math.Float64bits(math.Inf(-1)))
	f.Add("", "", "", math.Float64bits(9.999999e-7), math.Float64bits(999999999999999999999))
	f.Fuzz(func(t *testing.T, key, sub, str string, bits1, bits2 uint64) {
		n := cqjoin.Notification{QueryKey: key, Subscriber: sub, Values: []cqjoin.Value{
			cqjoin.N(math.Float64frombits(bits1)), cqjoin.S(str), cqjoin.N(math.Float64frombits(bits2)),
		}}
		want, wantOK := mapEventLine(n)
		got, ok := appendEvent([]byte("prefix"), n)
		if ok != wantOK {
			t.Fatalf("appendEvent ok=%v, encoding/json ok=%v for %v", ok, wantOK, n)
		}
		if ok && !bytes.Equal(got, append([]byte("prefix"), want...)) {
			t.Fatalf("event line differs from encoding/json:\n got %q\nwant %q", got, want)
		}
	})
}

// The hand-appended acknowledgements replaced maps json.Encoder wrote; their
// bytes are the maps', HTML-escaped key and extreme publication times
// included.
func TestAckBytesMatchMapEncoding(t *testing.T) {
	for _, tc := range []struct {
		ack []byte
		was map[string]interface{}
	}{
		{appendOKAck(nil), map[string]interface{}{"ok": true}},
		{appendKeyAck(nil, `peer<3>#1`), map[string]interface{}{"ok": true, "key": `peer<3>#1`}},
		{appendKeyAck([]byte("x")[:0], "s\u2028\x00\"\xff"), map[string]interface{}{"ok": true, "key": "s\u2028\x00\"\xff"}},
		{appendPubAck(nil, 1<<53), map[string]interface{}{"ok": true, "pubt": int64(1 << 53)}},
		{appendPubAck(nil, 7), map[string]interface{}{"ok": true, "pubt": int64(7)}},
		{appendPubAck(nil, 0), map[string]interface{}{"ok": true, "pubt": int64(0)}},
		{appendPubAck(nil, math.MinInt64), map[string]interface{}{"ok": true, "pubt": int64(math.MinInt64)}},
		{appendPubAck(nil, math.MaxInt64), map[string]interface{}{"ok": true, "pubt": int64(math.MaxInt64)}},
	} {
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(tc.was); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(tc.ack, want.Bytes()) {
			t.Fatalf("ack %q, the map it replaces %q", tc.ack, want.Bytes())
		}
	}

	// And on the socket: every per-operation ack, raw.
	srv, conn := startServer(t, defaultConfig())
	key := srv.Cluster().Node(0).Key() + "#1"
	r := bufio.NewReader(conn)
	for _, step := range []struct{ req, want string }{
		{`{"op":"subscribe","node":0,"sql":"SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product"}`, `{"key":"%KEY%","ok":true}`},
		{`  {"op":"publish","node":1,"relation":"Orders","values":[1,"acme","widget"]}  `, `{"ok":true,"pubt":3}`},
		{`{"op":"listen"}`, `{"ok":true}`},
		{`{"op":"publish","node":1,"relation":"Orders","values":[2,"acme","gears"]}`, `{"ok":true,"pubt":4}`},
		{`{"op":"unsubscribe","key":"%KEY%"}`, `{"ok":true}`},
	} {
		req := bytes.ReplaceAll([]byte(step.req), []byte("%KEY%"), []byte(key))
		want := bytes.ReplaceAll([]byte(step.want), []byte("%KEY%"), []byte(key))
		if _, err := conn.Write(append(req, '\n')); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, err := r.ReadBytes('\n')
		if err != nil || !bytes.Equal(bytes.TrimSuffix(got, []byte("\n")), want) {
			t.Fatalf("%s\n got %q, %v\nwant %q", req, got, err, want)
		}
	}
}
