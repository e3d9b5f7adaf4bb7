package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"cqjoin"
)

const ordersShipmentsSQL = `SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`

// daemonStat reads one metric of the stats reply's "daemon" section.
func daemonStat(t *testing.T, c *client, name string) float64 {
	t.Helper()
	stats := c.call(map[string]interface{}{"op": "stats"})
	section, _ := stats["daemon"].(map[string]interface{})
	v, ok := section[name].(float64)
	if !ok {
		t.Fatalf("stats carry no %s: %v", name, stats)
	}
	return v
}

// A listening client that stops reading must cost only itself. One listener
// never reads, one does; a third connection publishes until the first's
// backlog passes maxListenerBacklog. Every publication is acknowledged in
// time (no chord handler waited for the stalled socket), the stalled
// listener is disconnected and counted, and the healthy one receives every
// event exactly once, in delivery order.
func TestSlowListenerIsDropped(t *testing.T) {
	srv, conn := startServer(t, defaultConfig())
	// The engine keeps no notification it hands over, so the delivery
	// sequence is noted on its way to the daemon's broadcast.
	var deliveredMu sync.Mutex
	var delivered []cqjoin.Notification
	srv.Cluster().OnNotify(func(n cqjoin.Notification) {
		deliveredMu.Lock()
		delivered = append(delivered, n)
		deliveredMu.Unlock()
		srv.broadcast(n)
	})
	pub := newClient(t, conn)
	if resp := pub.call(map[string]interface{}{"op": "subscribe", "node": 0, "sql": ordersShipmentsSQL}); resp["ok"] != true {
		t.Fatalf("subscribe: %v", resp)
	}
	stalled, _ := listenRaw(t, srv)
	healthy, healthyR := listenRaw(t, srv)
	_ = healthy.SetReadDeadline(time.Now().Add(time.Minute))

	// 64 orders of one product under 4 kB customer names: every shipment of
	// that product then fans out into 64 events, a quarter megabyte.
	const orders, shipments = 64, 110

	type event struct {
		Query  string   `json:"query"`
		Values []string `json:"values"`
	}
	received := make(chan []event, 1)
	go func() {
		var got []event
		for len(got) < orders*shipments {
			line, err := healthyR.ReadBytes('\n')
			if err != nil {
				t.Errorf("healthy listener: %v after %d events", err, len(got))
				break
			}
			var ev event
			if err := json.Unmarshal(line, &ev); err != nil {
				t.Errorf("healthy listener received %q: %v", line, err)
			}
			got = append(got, ev)
		}
		received <- got
	}()
	pad := strings.Repeat("x", 4096)
	for i := 0; i < orders; i++ {
		if resp := pub.call(map[string]interface{}{"op": "publish", "node": 1, "relation": "Orders",
			"values": []interface{}{i, fmt.Sprintf("c%02d-%s", i, pad), "widget"}}); resp["ok"] != true {
			t.Fatalf("publish order %d: %v", i, resp)
		}
	}
	for i := 0; i < shipments; i++ {
		// client.call fails the test if the ack takes more than 5 s.
		if resp := pub.call(map[string]interface{}{"op": "publish", "node": 2, "relation": "Shipments",
			"values": []interface{}{i, "widget", fmt.Sprintf("depot%03d", i)}}); resp["ok"] != true {
			t.Fatalf("publish shipment %d: %v", i, resp)
		}
	}
	if total := orders * shipments * (len(pad) + 100); total < 3*maxListenerBacklog/2 {
		t.Fatalf("the stream is %d bytes, too little to pass the %d-byte backlog bound and the socket buffers", total, maxListenerBacklog)
	}

	if got := daemonStat(t, pub, "daemon.listener_dropped"); got != 1 {
		t.Fatalf("daemon.listener_dropped = %v, want 1", got)
	}
	if got := daemonStat(t, pub, "daemon.listener_queue_hwm_bytes"); got <= 0 || got > maxListenerBacklog {
		t.Fatalf("daemon.listener_queue_hwm_bytes = %v, want within (0, %d]", got, maxListenerBacklog)
	}
	// The stalled connection was closed by the daemon: reading it now runs
	// into the end of the stream, not into a deadline.
	_ = stalled.SetReadDeadline(time.Now().Add(20 * time.Second))
	if _, err := io.Copy(io.Discard, stalled); errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("the stalled listener's connection is still open")
	}
	waitFor(t, "the dropped listener's handler to end", func() bool {
		return daemonStat(t, pub, "daemon.listeners") == 1
	})

	// The healthy listener saw the engine's delivery sequence, whole, and
	// nothing after it.
	deliveredMu.Lock()
	want := delivered
	deliveredMu.Unlock()
	got := <-received
	if len(got) != len(want) || len(want) != orders*shipments || srv.Cluster().NotificationCount() != len(want) {
		t.Fatalf("healthy listener received %d events, the engine delivered %d and counted %d, want %d",
			len(got), len(want), srv.Cluster().NotificationCount(), orders*shipments)
	}
	waitFor(t, "the healthy listener's queue to drain", func() bool {
		return daemonStat(t, pub, "daemon.listener_queue_bytes") == 0
	})
	_ = healthy.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	if extra, err := healthyR.ReadBytes('\n'); err == nil {
		t.Fatalf("healthy listener received a %d-byte line after the last event", len(extra))
	}
	for i, n := range want {
		if got[i].Query != n.QueryKey || len(got[i].Values) != 2 || got[i].Values[0] != n.Values[0].Str() || got[i].Values[1] != n.Values[1].Str() {
			t.Fatalf("event %d is %s %.12q…, the engine delivered %s", i, got[i].Query, got[i].Values, n)
		}
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// On a connection that listens and publishes, the event of a match reaches
// the client before the acknowledgement of the publication that completed
// it: both travel through the connection's one queue.
func TestEventPrecedesAckOnListeningConn(t *testing.T) {
	_, conn := startServer(t, defaultConfig())
	c := newClient(t, conn)
	c.call(map[string]interface{}{"op": "listen"})
	c.call(map[string]interface{}{"op": "subscribe", "node": 0, "sql": ordersShipmentsSQL})
	for i := 0; i < 1000; i++ {
		product := fmt.Sprintf("p%d", i)
		c.call(map[string]interface{}{"op": "publish", "node": 1, "relation": "Orders", "values": []interface{}{i, "acme", product}})
		if len(c.events) != 0 {
			t.Fatalf("round %d: event before its match: %v", i, c.events)
		}
		b, _ := json.Marshal(map[string]interface{}{"op": "publish", "node": 2, "relation": "Shipments", "values": []interface{}{i, product, "rotterdam"}})
		if _, err := conn.Write(append(b, '\n')); err != nil {
			t.Fatal(err)
		}
		if first := c.read(); first["event"] != "notification" {
			t.Fatalf("round %d: %v arrived before the event", i, first)
		}
		if second := c.read(); second["ok"] != true {
			t.Fatalf("round %d: publish: %v", i, second)
		}
	}
}

// Queueing an event allocates nothing once the buffers have grown: the line
// is encoded into a pooled buffer and copied into each listener's queue.
func TestBroadcastAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	srv, _ := startServer(t, defaultConfig())
	for i := 0; i < 2; i++ {
		conn, _ := listenRaw(t, srv)
		_ = conn.SetReadDeadline(time.Time{})
		go func() { _, _ = io.Copy(io.Discard, conn) }()
	}
	n := cqjoin.Notification{QueryKey: "peer3#1", Subscriber: "peer3", Values: []cqjoin.Value{cqjoin.N(17), cqjoin.S("rotterdam <&>")}}
	for i := 0; i < 1000; i++ { // grow the pooled buffer, both queues and both spares
		srv.broadcast(n)
	}
	if allocs := testing.AllocsPerRun(5000, func() { srv.broadcast(n) }); allocs != 0 {
		t.Fatalf("broadcast to two listeners allocates %.2f times per event, want 0", allocs)
	}
}

func TestReadLine(t *testing.T) {
	const max = 200
	long := strings.Repeat("y", 150) // longer than the reader's buffer, within max
	input := "short\n" + long + "\n" + strings.Repeat("z", max+1) + "\n" + strings.Repeat("w", max-1) + "\n\nlast"
	br := bufio.NewReaderSize(strings.NewReader(input), 64)
	for i, want := range []string{"short\n", long + "\n", "", strings.Repeat("w", max-1) + "\n", "\n", "last"} {
		line, err := readLine(br, max)
		if want == "" {
			if err != errLineTooLong {
				t.Fatalf("line %d: %q, %v, want errLineTooLong", i, line, err)
			}
			continue
		}
		if err != nil || string(line) != want {
			t.Fatalf("line %d: %q, %v, want %q", i, line, err, want)
		}
	}
	if line, err := readLine(br, max); err != io.EOF {
		t.Fatalf("after the last line: %q, %v, want EOF", line, err)
	}
	// An oversized line cut short by EOF is still reported as too long.
	br = bufio.NewReaderSize(bytes.NewReader(bytes.Repeat([]byte("v"), 3*max)), 64)
	if _, err := readLine(br, max); err != errLineTooLong {
		t.Fatalf("oversized unterminated line: %v, want errLineTooLong", err)
	}
}
