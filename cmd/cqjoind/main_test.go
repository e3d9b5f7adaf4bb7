package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"cqjoin/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// The signal contract, tested against the real binary: a cqjoind that
// receives SIGTERM runs the same graceful path as -leave — checkpoint the
// write-ahead log, drain client connections, exit 0 — and a restart from
// the same -state-dir has every notification the signaled process had
// acknowledged, with the subscription still live.

func buildCqjoind(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "cqjoind")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Skipf("cannot build cqjoind (no toolchain?): %v\n%s", err, out)
	}
	return bin
}

// cqjoindProc is one spawned daemon: the process handle and the client
// address scraped from its startup log. done is closed when the process
// exits, after which waitErr holds its exit status.
type cqjoindProc struct {
	cmd     *exec.Cmd
	addr    string
	done    chan struct{}
	waitErr error
}

// startCqjoind spawns the binary and waits for its "listening on" line.
func startCqjoind(t *testing.T, bin, stateDir string) *cqjoindProc {
	t.Helper()
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-nodes", "32",
		"-schema", "Orders(Id,Customer,Product);Shipments(Id,Product,Depot)",
		"-state-dir", stateDir,
	)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatalf("stderr pipe: %v", err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("start cqjoind: %v", err)
	}
	p := &cqjoindProc{cmd: cmd, done: make(chan struct{})}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		<-p.done
	})
	addrC := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				select {
				case addrC <- strings.TrimSpace(line[i+len("listening on "):]):
				default:
				}
			}
		}
	}()
	go func() { p.waitErr = cmd.Wait(); close(p.done) }()
	select {
	case p.addr = <-addrC:
	case <-p.done:
		t.Fatalf("cqjoind exited before listening: %v", p.waitErr)
	case <-time.After(30 * time.Second):
		t.Fatal("cqjoind did not announce its client address")
	}
	return p
}

// lineClient is a minimal newline-JSON protocol client; notification
// events arriving between responses are queued.
type lineClient struct {
	t      *testing.T
	conn   net.Conn
	r      *bufio.Reader
	events []map[string]interface{}
}

func dialDaemon(t *testing.T, addr string) *lineClient {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { _ = conn.Close() })
	return &lineClient{t: t, conn: conn, r: bufio.NewReader(conn)}
}

func (c *lineClient) read() map[string]interface{} {
	c.t.Helper()
	_ = c.conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := c.r.ReadString('\n')
	if err != nil {
		c.t.Fatalf("read: %v", err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal([]byte(line), &m); err != nil {
		c.t.Fatalf("bad line %q: %v", line, err)
	}
	return m
}

func (c *lineClient) call(req map[string]interface{}) map[string]interface{} {
	c.t.Helper()
	b, _ := json.Marshal(req)
	if _, err := c.conn.Write(append(b, '\n')); err != nil {
		c.t.Fatalf("write: %v", err)
	}
	for {
		m := c.read()
		if _, isEvent := m["event"]; isEvent {
			c.events = append(c.events, m)
			continue
		}
		return m
	}
}

func (c *lineClient) nextEvent() map[string]interface{} {
	c.t.Helper()
	for len(c.events) == 0 {
		m := c.read()
		if _, isEvent := m["event"]; isEvent {
			c.events = append(c.events, m)
		}
	}
	ev := c.events[0]
	c.events = c.events[1:]
	return ev
}

func TestSigtermLosesNoAcknowledgedNotifications(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	bin := buildCqjoind(t)
	stateDir := t.TempDir()

	p := startCqjoind(t, bin, stateDir)
	c := dialDaemon(t, p.addr)
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
	key := resp["key"].(string)

	const pairs = 5
	acked := 0
	for i := 0; i < pairs; i++ {
		tag := fmt.Sprintf("sig-%d", i)
		if r := c.call(map[string]interface{}{"op": "publish", "node": 1 + i, "relation": "Orders",
			"values": []interface{}{1, "cust-" + tag, "prod-" + tag}}); r["ok"] != true {
			t.Fatalf("publish: %v", r)
		}
		if r := c.call(map[string]interface{}{"op": "publish", "node": 7 + i, "relation": "Shipments",
			"values": []interface{}{2, "prod-" + tag, "depot-" + tag}}); r["ok"] != true {
			t.Fatalf("publish: %v", r)
		}
		ev := c.nextEvent()
		if ev["query"] != key {
			t.Fatalf("event %v for wrong query, want %s", ev, key)
		}
		acked++
	}

	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("signal: %v", err)
	}
	select {
	case <-p.done:
		if p.waitErr != nil {
			t.Fatalf("signaled cqjoind exited abnormally: %v", p.waitErr)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("signaled cqjoind did not exit")
	}

	// Restart from the same state directory: nothing acknowledged is gone.
	p2 := startCqjoind(t, bin, stateDir)
	c2 := dialDaemon(t, p2.addr)
	stats := c2.call(map[string]interface{}{"op": "stats"})
	if got := stats["notifications"].(float64); int(got) != acked {
		t.Fatalf("restart has %v notifications, acknowledged %d before SIGTERM", got, acked)
	}
	// The subscription is live again: one more matching pair notifies.
	if resp := c2.call(map[string]interface{}{"op": "listen"}); resp["ok"] != true {
		t.Fatalf("listen: %v", resp)
	}
	if r := c2.call(map[string]interface{}{"op": "publish", "node": 3, "relation": "Orders",
		"values": []interface{}{1, "cust-after", "prod-after"}}); r["ok"] != true {
		t.Fatalf("publish: %v", r)
	}
	if r := c2.call(map[string]interface{}{"op": "publish", "node": 4, "relation": "Shipments",
		"values": []interface{}{2, "prod-after", "depot-after"}}); r["ok"] != true {
		t.Fatalf("publish: %v", r)
	}
	ev := c2.nextEvent()
	if ev["query"] != key {
		t.Fatalf("subscription did not survive signal+restart: %v", ev)
	}
}
