package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"cqjoin"
	"cqjoin/internal/daemon"
)

// A target is the system under test behind the surface a user of it would
// call. Client c of a run only ever uses its own connection; every method
// is safe for concurrent use by distinct clients.
type target interface {
	// subscribe poses stream query index; unsubscribe retracts it.
	subscribe(c, index int) error
	unsubscribe(c, index int) error
	// publish inserts the tuple of stream op id.
	publish(c, id int) error
	// queryKeys maps the keys the system gave the queries back to their
	// stream index.
	queryKeys() map[string]int
	// ledger returns the cumulative overlay traffic.
	ledger() (ledger, error)
	// clusters returns the in-process clusters behind the target, for the
	// layer ledgers and the trace decorators.
	clusters() []*cqjoin.Cluster
	close() error
}

// ledger is the paper's cost model: overlay hops and the bytes they moved.
type ledger struct{ hops, bytes int64 }

func (l ledger) sub(o ledger) ledger { return ledger{l.hops - o.hops, l.bytes - o.bytes} }

// queryTable remembers what the system called each stream query.
type queryTable[H any] struct {
	mu      sync.Mutex
	handles map[int]H
}

func (t *queryTable[H]) put(index int, h H) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.handles == nil {
		t.handles = make(map[int]H)
	}
	t.handles[index] = h
}

func (t *queryTable[H]) get(index int) (H, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	h, ok := t.handles[index]
	if !ok {
		return h, fmt.Errorf("query %d was never subscribed", index)
	}
	return h, nil
}

func (t *queryTable[H]) keys(key func(H) string) map[string]int {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]int, len(t.handles))
	for i, h := range t.handles {
		out[key(h)] = i
	}
	return out
}

// simTarget drives one in-process cqjoin.Cluster.
type simTarget struct {
	st      *stream
	cluster *cqjoin.Cluster
	nodes   []*cqjoin.Node
	tuples  []*cqjoin.Tuple // by op id; nil for non-publish ops
	queries queryTable[*cqjoin.Query]
}

// inputs is the stream in the form each kind of target consumes, built
// once before any set-up is timed: it is the benchmark's input, not the
// system's work.
type inputs struct {
	catalog *cqjoin.Catalog
	tuples  []*cqjoin.Tuple // sim, by op id; nil for non-publish ops
	lines   [][]byte        // tcp, by op id: the publish request, newline included
}

func materialize(st *stream) (*inputs, error) {
	catalog, err := daemon.ParseSchemaDSL(st.spec.schemaDSL())
	if err != nil {
		return nil, err
	}
	in := &inputs{catalog: catalog}
	if st.spec.tcp {
		in.lines = make([][]byte, len(st.ops))
	} else {
		in.tuples = make([]*cqjoin.Tuple, len(st.ops))
	}
	for i, o := range st.ops {
		if o.kind != opPublish {
			continue
		}
		if st.spec.tcp {
			in.lines[i] = []byte(st.line(i) + "\n")
			continue
		}
		schema := catalog.Lookup(relName(o.side, int(o.pair)))
		in.tuples[i], err = cqjoin.NewTuple(schema, cqjoin.N(float64(i)),
			cqjoin.S(keyName(o.keyA)), cqjoin.S(keyName(o.keyB)), cqjoin.S(fmt.Sprintf("c%d", o.pay)))
		if err != nil {
			return nil, err
		}
	}
	return in, nil
}

// newSimTarget builds the cluster; the returned duration is NewCluster's
// alone.
func newSimTarget(st *stream, in *inputs, sink *collector) (*simTarget, time.Duration, error) {
	t := &simTarget{st: st, tuples: in.tuples}
	var err error
	start := time.Now()
	t.cluster, err = cqjoin.NewCluster(cqjoin.Config{Nodes: st.spec.nodes, Catalog: in.catalog, Seed: 1})
	if err != nil {
		return nil, 0, err
	}
	build := time.Since(start)
	t.nodes = make([]*cqjoin.Node, st.spec.nodes)
	for i := range t.nodes {
		t.nodes[i] = t.cluster.Node(i)
	}
	t.cluster.OnNotify(func(n cqjoin.Notification) {
		at := sink.now()
		r, s := int32(-1), int32(-1)
		if len(n.Values) == 2 {
			r, s = int32(n.Values[0].Num()), int32(n.Values[1].Num())
		}
		sink.add(n.QueryKey, r, s, at)
	})
	return t, build, nil
}

func (t *simTarget) subscribe(_, index int) error {
	q := t.st.queries[index]
	h, err := t.nodes[q.node].Subscribe(q.sql())
	if err != nil {
		return err
	}
	t.queries.put(index, h)
	return nil
}

func (t *simTarget) unsubscribe(_, index int) error {
	h, err := t.queries.get(index)
	if err != nil {
		return err
	}
	return t.nodes[t.st.queries[index].node].Unsubscribe(h)
}

func (t *simTarget) publish(_, id int) error {
	_, err := t.nodes[t.st.ops[id].node].PublishTuple(t.tuples[id])
	return err
}

func (t *simTarget) queryKeys() map[string]int {
	return t.queries.keys(func(q *cqjoin.Query) string { return q.Key() })
}

func (t *simTarget) ledger() (ledger, error) {
	tr := t.cluster.Traffic()
	return ledger{tr.TotalHops(), tr.TotalBytes()}, nil
}

func (t *simTarget) clusters() []*cqjoin.Cluster { return []*cqjoin.Cluster{t.cluster} }
func (t *simTarget) close() error                { return nil }

// tcpTarget hosts two daemon.Servers in this process, joined by a real TCP
// overlay on the workload's pinned ports, and talks to them the way any
// client does: JSON lines over loopback sockets.
type tcpTarget struct {
	st       *stream
	servers  [2]*daemon.Server
	addrs    [2]string
	owner    []int           // ring position -> daemon
	conns    [][2]*jsonConn  // [client][daemon]
	clientLn [2]net.Listener // protocol listeners the daemons Serve on
	listens  [2]net.Conn     // passive notification streams
	lines    [][]byte        // by op id: the publish request, newline included
	queries  queryTable[string]
	wg       sync.WaitGroup // Serve loops and listen readers
}

// newTCPTarget starts the daemons and dials clients+1 connections to each
// (one extra for control calls, index clients). It never falls back to an
// ephemeral overlay port: ring ownership is part of the workload.
func newTCPTarget(st *stream, in *inputs, sink *collector, clients int, stateDir string) (*tcpTarget, error) {
	s := st.spec
	t := &tcpTarget{st: st, lines: in.lines}
	var overlays [2]net.Listener
	var peers []string
	for d, port := range s.ports {
		addr := fmt.Sprintf("127.0.0.1:%d", port)
		ln, err := listenRetry(addr, 5*time.Second)
		if err != nil {
			for _, l := range overlays[:d] {
				_ = l.Close()
			}
			return nil, fmt.Errorf("overlay port of daemon %d: %w", d, err)
		}
		overlays[d] = ln
		peers = append(peers, addr)
	}
	fail := func(err error) (*tcpTarget, error) {
		for _, ln := range overlays {
			_ = ln.Close() // a second close by its daemon's transport is harmless
		}
		_ = t.close()
		return nil, err
	}
	for d := range t.servers {
		cfg := daemon.Config{
			Nodes: s.nodes, Algorithm: "sai", SchemaDSL: s.schemaDSL(), Seed: 1,
			HotKeyThreshold: s.hotThreshold, HotKeyReplicas: s.hotReplicas,
			OverlayAddr: peers[d], Peers: peers,
		}
		if s.durable {
			cfg.StateDir = filepath.Join(stateDir, fmt.Sprintf("daemon%d", d))
		}
		srv, err := daemon.New(cfg)
		if err != nil {
			return fail(fmt.Errorf("daemon %d: %w", d, err))
		}
		t.servers[d] = srv
		if err := srv.StartOverlay(overlays[d]); err != nil {
			return fail(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		t.clientLn[d], t.addrs[d] = ln, ln.Addr().String()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			_ = srv.Serve(ln) // returns when close() closes the listener
		}()
	}
	t.owner = make([]int, s.nodes)
	var split [2]int
	for n := range t.owner {
		switch {
		case t.servers[0].OwnsNode(n):
		case t.servers[1].OwnsNode(n):
			t.owner[n] = 1
		default:
			return fail(fmt.Errorf("ring position %d is owned by neither daemon", n))
		}
		split[t.owner[n]]++
	}
	if split != s.ownSplit {
		return fail(fmt.Errorf("ring ownership is %v, the workload pins %v: the run would not be comparable", split, s.ownSplit))
	}
	t.conns = make([][2]*jsonConn, clients+1)
	for c := range t.conns {
		for d, addr := range t.addrs {
			jc, err := dialJSON(addr)
			if err != nil {
				return fail(err)
			}
			t.conns[c][d] = jc
		}
	}
	for d, addr := range t.addrs {
		jc, err := dialJSON(addr)
		if err != nil {
			return fail(err)
		}
		if _, err := jc.call([]byte(`{"op":"listen"}` + "\n")); err != nil {
			_ = jc.conn.Close()
			return fail(err)
		}
		t.listens[d] = jc.conn
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			readEvents(jc.r, sink)
		}()
	}
	return t, nil
}

// listenRetry binds addr, waiting out a predecessor that is still letting
// go of it.
func listenRetry(addr string, patience time.Duration) (net.Listener, error) {
	deadline := time.Now().Add(patience)
	for {
		ln, err := net.Listen("tcp", addr)
		if err == nil {
			return ln, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// readEvents feeds a listen connection's notification events to sink until
// the connection closes.
func readEvents(r *bufio.Reader, sink *collector) {
	var ev struct {
		Query  string    `json:"query"`
		Values []float64 `json:"values"`
	}
	for {
		line, err := r.ReadSlice('\n')
		if err != nil {
			return
		}
		at := sink.now()
		ev.Query, ev.Values = "", ev.Values[:0]
		rID, sID := int32(-1), int32(-1)
		if json.Unmarshal(line, &ev) == nil && len(ev.Values) == 2 {
			rID, sID = int32(ev.Values[0]), int32(ev.Values[1])
		}
		sink.add(ev.Query, rID, sID, at)
	}
}

func (t *tcpTarget) control(d int) *jsonConn { return t.conns[len(t.conns)-1][d] }

func (t *tcpTarget) subscribe(c, index int) error {
	q := t.st.queries[index]
	req := fmt.Sprintf(`{"op":"subscribe","node":%d,"sql":%q}`+"\n", q.node, q.sql())
	resp, err := t.conns[c][t.owner[q.node]].call([]byte(req))
	if err != nil {
		return err
	}
	t.queries.put(index, resp.Key)
	return nil
}

func (t *tcpTarget) unsubscribe(c, index int) error {
	key, err := t.queries.get(index)
	if err != nil {
		return err
	}
	req := fmt.Sprintf(`{"op":"unsubscribe","key":%q}`+"\n", key)
	_, err = t.conns[c][t.owner[t.st.queries[index].node]].call([]byte(req))
	return err
}

func (t *tcpTarget) publish(c, id int) error {
	_, err := t.conns[c][t.owner[t.st.ops[id].node]].call(t.lines[id])
	return err
}

// prime publishes n tuples of primeRel through each daemon (see primeRel).
func (t *tcpTarget) prime(n int) error {
	for d := range t.servers {
		node := 0
		for t.owner[node] != d {
			node++
		}
		for i := 0; i < n; i++ {
			req := fmt.Sprintf(`{"op":"publish","node":%d,"relation":%q,"values":[%d]}`+"\n", node, primeRel, i)
			if _, err := t.control(d).call([]byte(req)); err != nil {
				return fmt.Errorf("prime daemon %d: %w", d, err)
			}
		}
	}
	return nil
}

func (t *tcpTarget) queryKeys() map[string]int {
	return t.queries.keys(func(k string) string { return k })
}

// stats calls the stats op on daemon d.
func (t *tcpTarget) stats(d int) (reply, error) {
	return t.control(d).call([]byte(`{"op":"stats"}` + "\n"))
}

func (t *tcpTarget) ledger() (ledger, error) {
	var l ledger
	for d := range t.servers {
		st, err := t.stats(d)
		if err != nil {
			return l, err
		}
		l.hops += st.Hops
		l.bytes += st.Bytes
	}
	return l, nil
}

func (t *tcpTarget) clusters() []*cqjoin.Cluster {
	return []*cqjoin.Cluster{t.servers[0].Cluster(), t.servers[1].Cluster()}
}

// close tears everything down and waits for every goroutine the target
// started. The daemons are closed, not shut down: a graceful shutdown would
// hand each node's state to the peer first, which is not part of any
// workload.
func (t *tcpTarget) close() error {
	var first error
	for _, cs := range t.conns {
		for _, c := range cs {
			if c != nil {
				_ = c.conn.Close()
			}
		}
	}
	for _, srv := range t.servers {
		if srv != nil {
			if err := srv.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	for d := range t.servers {
		if t.clientLn[d] != nil {
			_ = t.clientLn[d].Close() // in case Serve had not registered it with Close yet
		}
		if t.listens[d] != nil {
			_ = t.listens[d].Close()
		}
	}
	t.wg.Wait()
	return first
}

// jsonConn is one client connection speaking the daemon's line protocol.
// Not safe for concurrent use.
type jsonConn struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialJSON(addr string) (*jsonConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &jsonConn{conn: conn, r: bufio.NewReaderSize(conn, 64<<10)}, nil
}

// reply is the union of the fields the benchmark reads from the daemon's
// responses.
type reply struct {
	OK            bool               `json:"ok"`
	Error         string             `json:"error"`
	Key           string             `json:"key"`
	Notifications int                `json:"notifications"`
	Hops          int64              `json:"hops"`
	Bytes         int64              `json:"bytes"`
	EvalLoadMax   float64            `json:"eval_load_max"`
	EvalLoadGini  float64            `json:"eval_load_gini"`
	HotKeys       int                `json:"hot_keys"`
	RingOK        bool               `json:"ring_ok"`
	Transport     map[string]float64 `json:"transport"`
}

// call sends one request line and reads its response; a response with
// ok=false is an error.
func (c *jsonConn) call(line []byte) (reply, error) {
	var rep reply
	if err := c.conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return rep, err
	}
	if _, err := c.conn.Write(line); err != nil {
		return rep, err
	}
	resp, err := c.r.ReadSlice('\n')
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(resp, &rep); err != nil {
		return rep, fmt.Errorf("bad response %q: %w", resp, err)
	}
	if !rep.OK {
		return rep, fmt.Errorf("daemon refused %s: %s", line, rep.Error)
	}
	return rep, nil
}
