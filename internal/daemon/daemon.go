// Package daemon embeds a continuous-join cluster behind a TCP boundary:
// a newline-delimited JSON protocol for subscribing, publishing, streaming
// notifications and reading statistics. cmd/cqjoind is the thin CLI
// wrapper; the package is separate so the protocol is testable in-process.
package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cqjoin"
	"cqjoin/internal/chord"
	"cqjoin/internal/durable"
	"cqjoin/internal/engine"
	"cqjoin/internal/lockdep"
	"cqjoin/internal/obs"
	"cqjoin/internal/relation"
	"cqjoin/internal/transport"
	"cqjoin/internal/wire"
)

// Config parameterizes a daemon.
type Config struct {
	// Nodes is the overlay size.
	Nodes int
	// Algorithm is one of "sai", "daiq", "dait", "daiv" (case-insensitive).
	Algorithm string
	// SchemaDSL declares the catalog: "R(A,B);S(D,E)".
	SchemaDSL string
	// UseJFRT enables the Join Fingers Routing Table.
	UseJFRT bool
	// Seed drives deterministic behaviour.
	Seed int64
	// HotKeyThreshold arms adaptive hot-key sharding (SAI only); 0
	// disables it. Every process of a multi-process overlay must agree on
	// the hot-key configuration — shard frames land on whichever process
	// owns the replica id — so overlay-config propagates it to joiners.
	HotKeyThreshold int
	// HotKeyReplicas is the promoted replica-group size (< 2 defaults
	// to 4).
	HotKeyReplicas int

	// OverlayAddr is this process's inter-node transport address
	// ("host:port"). Empty runs the classic single-process mode with
	// simulated delivery.
	OverlayAddr string
	// Peers lists the overlay processes' OverlayAddrs. Each process
	// builds the identical overlay from (Nodes, Algorithm, SchemaDSL,
	// Seed); node ownership is derived from the membership view by
	// consistent hashing (see membership.go), so list order does not
	// matter. Unless JoinExisting is set, Peers is this process's initial
	// membership and must contain OverlayAddr.
	Peers []string
	// JoinExisting marks this process as entering an already-running
	// overlay: Peers lists the current members (obtained from a running
	// daemon's overlay-config op) and must NOT contain OverlayAddr. After
	// StartOverlay, call JoinOverlay to enter the ring; until then this
	// process owns no nodes.
	JoinExisting bool

	// StateDir, when non-empty, arms per-process durability: every
	// acknowledged mutating operation and inbound overlay delivery is
	// appended to a write-ahead log under the directory, periodically
	// compacted into a snapshot, and replayed on the next start before the
	// process rejoins the overlay (DESIGN.md §14). Empty keeps the daemon
	// fully in-memory — byte-identical behaviour to earlier releases.
	StateDir string
	// SnapshotEvery overrides the checkpoint cadence in logged records
	// (tests use small values); 0 means the durable layer's default.
	SnapshotEvery int
}

// Server owns one cluster and serves the JSON protocol.
type Server struct {
	cfg      Config
	cluster  *cqjoin.Cluster
	catalog  *cqjoin.Catalog
	reg      *obs.Registry    // daemon.*, codec.*, engine.* and (multi-process) transport.* metrics
	met      serverMetrics    // handles into reg
	tr       *transport.TCP   // nil in single-process mode
	members  *membership      // nil in single-process mode
	codec    engine.WireCodec // re-encodes inbound deliveries for the WAL
	store    *durable.Store   // nil without Config.StateDir
	recovery durable.RecoveryInfo
	logf     func(format string, args ...interface{})

	mu        lockdep.Mutex[serverMu]
	listeners []*listener // copy-on-write: broadcast reads it outside mu
	listening net.Listener
	// conns tracks accepted client connections and connWG their handler
	// goroutines, so Close can tear both down instead of leaking blocked
	// readers; closed refuses handlers accepted during shutdown.
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup
	closed bool
}

type serverMu struct{} // Server.mu's lock class

// serverMetrics is the client-socket side of the daemon as stats reports it.
type serverMetrics struct {
	listeners  *obs.Gauge   // connections that have issued "listen"
	queueBytes *obs.Gauge   // queued for listeners, not yet handed to a Write
	queueHWM   *obs.Gauge   // the deepest any one listener's queue has been
	dropped    *obs.Counter // listeners disconnected at maxListenerBacklog
	writes     *obs.Counter // flushes: events per write is the coalescing factor
}

// New builds a server around a fresh cluster. With cfg.OverlayAddr set it
// also wires a TCP transport into the overlay so deliveries to ring
// positions owned by other processes cross the network; call
// StartOverlay before serving clients.
func New(cfg Config) (*Server, error) {
	catalog, err := ParseSchemaDSL(cfg.SchemaDSL)
	if err != nil {
		return nil, err
	}
	alg, err := parseAlgorithm(cfg.Algorithm)
	if err != nil {
		return nil, err
	}
	cfg.Algorithm = algorithmName(alg)
	reg := obs.NewRegistry()
	cluster, err := cqjoin.NewCluster(cqjoin.Config{
		Nodes:           cfg.Nodes,
		Catalog:         catalog,
		Algorithm:       alg,
		UseJFRT:         cfg.UseJFRT,
		Seed:            cfg.Seed,
		HotKeyThreshold: cfg.HotKeyThreshold,
		HotKeyReplicas:  cfg.HotKeyReplicas,
		Obs:             reg,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		cluster: cluster,
		catalog: catalog,
		reg:     reg,
		met: serverMetrics{
			listeners:  reg.Gauge("daemon.listeners"),
			queueBytes: reg.Gauge("daemon.listener_queue_bytes"),
			queueHWM:   reg.Gauge("daemon.listener_queue_hwm_bytes"),
			dropped:    reg.Counter("daemon.listener_dropped"),
			writes:     reg.Counter("daemon.listener_writes"),
		},
		codec: cluster.Engine().WireCodec(),
		logf:  log.Printf,
		conns: make(map[net.Conn]struct{}),
	}
	s.codec.Observe(reg)
	if cfg.OverlayAddr != "" {
		self := slices.Contains(cfg.Peers, cfg.OverlayAddr)
		if cfg.JoinExisting {
			if self {
				return nil, fmt.Errorf("daemon: joining process %s must not be in the peer list %v", cfg.OverlayAddr, cfg.Peers)
			}
			if len(cfg.Peers) == 0 {
				return nil, fmt.Errorf("daemon: joining an existing overlay needs its current peer list")
			}
			// Version 0: any authoritative view handed back by the join
			// seed supersedes this placeholder. Until JoinOverlay runs,
			// this process owns no nodes.
			s.members = newMembership(cfg.OverlayAddr, cfg.Peers, 0)
		} else {
			if !self {
				return nil, fmt.Errorf("daemon: overlay address %s is not in the peer list %v", cfg.OverlayAddr, cfg.Peers)
			}
			s.members = newMembership(cfg.OverlayAddr, cfg.Peers, 1)
		}
		tr, err := transport.New(transport.Config{
			Self:       cfg.OverlayAddr,
			OwnerOf:    s.members.ownerOf,
			Codec:      s.codec,
			Local:      s, // ownership-gated; see DeliverLocal
			Membership: s,
			Seed:       cfg.Seed,
			Obs:        s.reg,
		})
		if err != nil {
			return nil, err
		}
		s.tr = tr
		cluster.Overlay().SetTransport(tr)
	}
	// The consumer goes in before recovery, so that the engine keeps of a
	// replayed notification what it keeps of a live one: its identity and
	// the count. With no listener yet, broadcast is a no-op.
	cluster.OnNotify(s.broadcast)
	if cfg.StateDir != "" {
		if err := s.openDurable(); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// openDurable loads the state directory and replays it into the fresh
// cluster before any traffic is served: the snapshot restores whole-node
// state, the WAL tail re-executes every acknowledged operation that
// followed it, and the latest logged membership view is re-adopted so the
// process rejoins the overlay owning exactly what it owned when it
// stopped. Afterwards the cluster routes mutating ops through the store.
func (s *Server) openDurable() error {
	opts := durable.Options{SnapshotEvery: s.cfg.SnapshotEvery, Logf: s.logf}
	if s.members != nil {
		opts.View = s.members.view
	}
	st, err := durable.Open(s.cfg.StateDir, s.catalog, opts)
	if err != nil {
		return err
	}
	info, err := st.Recover(s.cluster.Engine())
	if err != nil {
		st.Abandon()
		return fmt.Errorf("daemon: recover %s: %w", s.cfg.StateDir, err)
	}
	if info.DerivedMarks > 0 && s.members != nil {
		// The engine set the marks whose rewriter it holds; one a peer owns
		// would stay unmarked and silently never forward.
		st.Abandon()
		return fmt.Errorf("daemon: state directory %s was written by a build without interest marks and its standing queries need %d; an overlay process cannot set those its peers own: retract the queries with that build, or subscribe again from an empty directory", s.cfg.StateDir, info.DerivedMarks)
	}
	if info.View != nil && s.members != nil {
		s.members.apply(info.View)
	}
	s.store = st
	s.recovery = info
	s.cluster.SetDurable(st)
	return nil
}

// Recovery reports what the state directory restored (zero without one).
func (s *Server) Recovery() durable.RecoveryInfo { return s.recovery }

// StartOverlay begins serving inter-node traffic on ln. A restarted process
// binds ln once New has returned: New's replay re-sends deliveries whose
// peers call back, and a listener bound before would accept those calls with
// nobody serving them. A process with a state directory then hands back what
// its recovered view gives away, as a view event does, and checkpoints once a
// hand-back is acked, so that the next start replays nothing it gave away.
func (s *Server) StartOverlay(ln net.Listener) error {
	if s.tr == nil {
		return fmt.Errorf("daemon: no overlay transport configured")
	}
	s.tr.Start(ln)
	if s.store != nil && s.exportMoved() {
		return s.store.Checkpoint()
	}
	return nil
}

// Cluster exposes the embedded cluster (for tests and embedding).
func (s *Server) Cluster() *cqjoin.Cluster { return s.cluster }

// DeliverLocal implements transport.LocalDeliverer with an ownership gate:
// a message for a node this process does not own (per the current
// membership view) is refused, and the sender reads a missing ack. Nothing
// re-sends it — the daemon's engine runs with no retry budget, and the
// transport retries a failed round trip, not a refused entry — so the
// message is lost, like any best-effort delivery (paper §3.2). The sender's
// engine books the loss (stats "lost") on each path that goes through its
// retry helper, retryFailed, whose budget is then 0.
// Without the gate, a delivery racing a membership change would run a
// handler on a process that no longer holds the node's authoritative
// state. Only the overlay transport calls it, so there is a view.
func (s *Server) DeliverLocal(dstKey string, msg chord.Message) bool {
	dst := s.cluster.Overlay().NodeByKey(dstKey)
	if dst == nil || !s.owns(dst) {
		return false
	}
	if !s.cluster.Overlay().DeliverLocal(dstKey, msg) {
		return false
	}
	if s.store != nil {
		// Log after applying, before acking: an acked delivery is always
		// durable. One whose log append failed is applied but neither logged
		// nor acked, and nothing re-sends it (the engine runs with MaxRetries
		// 0, the transport re-sends no nacked entry): a restart loses it, and
		// the sender books the loss as for a refused delivery.
		var w wire.Buffer
		if err := s.codec.Encode(&w, msg); err != nil {
			s.logf("daemon: encode delivery for wal: %v", err)
			return false
		}
		if err := s.store.LogDelivery(dstKey, w.Bytes()); err != nil {
			s.logf("daemon: log delivery to %s: %v", dstKey, err)
			return false
		}
	}
	return true
}

// HandleJoin implements transport.MembershipHandler: admit the joining
// process and return the authoritative post-join view, logged before it is
// answered. State movement is deliberately NOT triggered here — the joiner
// cannot accept handoffs until it has applied the new view, so it drives the
// hand-off phase itself (JoinOverlay gossips the view to every member, and
// each member exports on receipt).
func (s *Server) HandleJoin(addr string) (*wire.MemberView, error) {
	v, changed := s.members.add(addr)
	if changed {
		s.logf("daemon: admitted %s; membership v%d %v", addr, v.Version, v.Procs)
		s.logView(v)
	}
	return v, nil
}

// HandleView implements transport.MembershipHandler: adopt the gossiped view.
func (s *Server) HandleView(v *wire.MemberView) uint64 {
	cur, _ := s.adopt(v, false)
	return cur
}

// JoinOverlay enters a running overlay through the member at seedAddr:
// request admission, adopt the returned view, then gossip it to every
// member so each hands over the nodes this process now owns. Call after
// the overlay transport is serving (StartOverlay), or inbound handoffs
// have nowhere to land.
func (s *Server) JoinOverlay(seedAddr string) error {
	if s.tr == nil {
		return fmt.Errorf("daemon: no overlay transport configured")
	}
	v, err := s.tr.SendJoin(seedAddr)
	if err != nil {
		return fmt.Errorf("daemon: join via %s: %w", seedAddr, err)
	}
	_, err = s.adopt(v, true)
	return err
}

// LeaveOverlay departs the overlay voluntarily: publish the view without
// this process first (so the remaining members accept the handoffs), then
// export every node held here to its new owner. The server keeps serving
// clients, but owns no nodes afterwards.
func (s *Server) LeaveOverlay() error {
	if s.tr == nil {
		return fmt.Errorf("daemon: no overlay transport configured")
	}
	v, ok := s.members.remove(s.cfg.OverlayAddr)
	if !ok {
		return fmt.Errorf("daemon: %s is not an overlay member", s.cfg.OverlayAddr)
	}
	s.logView(v)
	_, err := s.adopt(v, true) // v is held already: adopt gossips and exports
	return err
}

// adopt installs v if it wins the total order, logging each view it
// installs before gossiping it: v itself when this process brings it
// (bring), and a change of this process's own that v orphaned (a concurrent
// same-version originator won the arbitration), re-originated on top of v so
// it lands in the winning lineage at a higher version. Last it hands off
// every locally held node the held view assigns elsewhere. Gossip goes out before the
// export so receivers' ownership gates accept the handoffs. The export also
// runs when v merely re-confirms the held version: the join protocol gossips
// the same view to every member precisely to trigger exports after the joiner
// is ready, and re-exporting is idempotent (only non-empty misowned state
// moves).
func (s *Server) adopt(v *wire.MemberView, bring bool) (cur uint64, err error) {
	changed, cur, reissue := s.members.apply(v)
	if changed {
		s.logf("daemon: membership v%d %v", v.Version, v.Procs)
		s.logView(v)
	}
	if bring {
		err = s.spread(v)
	}
	if reissue != nil {
		s.logf("daemon: re-originated concurrent change as v%d %v", reissue.Version, reissue.Procs)
		s.logView(reissue)
		if rerr := s.spread(reissue); err == nil {
			err = rerr
		}
	}
	if bring || changed || v.Version == cur {
		s.exportMoved()
	}
	return cur, err
}

// logView writes a view this process installed to the WAL, before anything
// answers, gossips or exports under it: each view add, remove or apply
// installs comes here once. Recovery's own apply re-installs a logged view
// and does not.
func (s *Server) logView(v *wire.MemberView) {
	if s.store == nil {
		return
	}
	if err := s.store.LogView(v); err != nil {
		s.logf("daemon: log view v%d: %v", v.Version, err)
	}
}

// spread gossips v to every other member it lists.
func (s *Server) spread(v *wire.MemberView) error {
	var firstErr error
	for _, p := range v.Procs {
		if p == s.cfg.OverlayAddr {
			continue
		}
		if _, err := s.tr.SendView(p, v); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("daemon: gossip view v%d to %s: %w", v.Version, p, err)
		}
	}
	return firstErr
}

// exportMoved hands off every node whose owner under the current view is
// another process, and reports whether any hand-off was acked. Only nodes
// with non-empty movable state cross the wire, a process that retracted a
// query having its retraction memory to send with each; re-running after a
// partial failure is safe. A handoff the new owner never acked
// is re-imported locally so state is never dropped on the floor, and the
// pass sends that owner nothing more: a peer that is down would cost every
// further node a full RPC budget. What it keeps, the next view event or the
// next start hands back.
func (s *Server) exportMoved() (moved bool) {
	var down []string            // owners a handoff failed to, in that order
	kept := make(map[string]int) // and how many of their nodes stay here
	for _, n := range s.cluster.Overlay().Nodes() {
		if s.owns(n) {
			continue
		}
		owner := s.members.ownerOf(n.ID())
		if kept[owner] > 0 {
			kept[owner]++
			continue
		}
		msg, ok := s.cluster.ExportHandoff(n)
		if !ok {
			continue
		}
		if s.tr.Deliver(n, n, msg) {
			moved = true
		} else {
			s.cluster.Overlay().DeliverLocal(n.Key(), msg)
			down, kept[owner] = append(down, owner), 1
		}
	}
	for _, owner := range down {
		s.logf("daemon: handoff to %s failed; %d of its nodes stay here until the next view event or start", owner, kept[owner])
	}
	return moved
}

// owns reports whether this process holds node n under its installed view.
// A single-process server holds every node.
func (s *Server) owns(n *chord.Node) bool {
	return s.members == nil || s.members.ownerOf(n.ID()) == s.cfg.OverlayAddr
}

// ParseSchemaDSL parses "R(A,B);S(D,E)" into a catalog.
func ParseSchemaDSL(dsl string) (*cqjoin.Catalog, error) {
	var schemas []*cqjoin.Schema
	for _, part := range strings.Split(dsl, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		open := strings.IndexByte(part, '(')
		if open <= 0 || !strings.HasSuffix(part, ")") {
			return nil, fmt.Errorf("daemon: bad schema %q, want Rel(A,B,...)", part)
		}
		name := strings.TrimSpace(part[:open])
		var attrs []string
		for _, a := range strings.Split(part[open+1:len(part)-1], ",") {
			attrs = append(attrs, strings.TrimSpace(a))
		}
		schema, err := cqjoin.NewSchema(name, attrs...)
		if err != nil {
			return nil, err
		}
		schemas = append(schemas, schema)
	}
	if len(schemas) == 0 {
		return nil, fmt.Errorf("daemon: empty schema")
	}
	return cqjoin.NewCatalog(schemas...)
}

func parseAlgorithm(name string) (cqjoin.Algorithm, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "sai":
		return cqjoin.SAI, nil
	case "daiq", "dai-q":
		return cqjoin.DAIQ, nil
	case "dait", "dai-t":
		return cqjoin.DAIT, nil
	case "daiv", "dai-v":
		return cqjoin.DAIV, nil
	default:
		return 0, fmt.Errorf("daemon: unknown algorithm %q", name)
	}
}

// algorithmName is the canonical protocol spelling, so "overlay-config"
// responses round-trip through parseAlgorithm.
func algorithmName(alg cqjoin.Algorithm) string {
	switch alg {
	case cqjoin.DAIQ:
		return "daiq"
	case cqjoin.DAIT:
		return "dait"
	case cqjoin.DAIV:
		return "daiv"
	default:
		return "sai"
	}
}

// Serve accepts connections on ln until it is closed (cqjoind passes its
// -addr listener, tests a loopback listener with port 0).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.listening = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		go s.handleConn(conn)
	}
}

// Shutdown is the graceful exit shared by SIGINT/SIGTERM and -leave: in
// multi-process mode the process departs the overlay first (handing every
// held node to the survivors), then client connections are closed and
// their handlers drained (Close), and finally the durable store takes its
// last checkpoint and closes — so every operation a client saw
// acknowledged is either handed off or in the state directory.
func (s *Server) Shutdown() error {
	var first error
	// A process that already left (the -leave op) has nothing to hand off.
	if s.members != nil && s.tr != nil && slices.Contains(s.members.view().Procs, s.cfg.OverlayAddr) {
		if err := s.LeaveOverlay(); err != nil {
			first = err
		}
	}
	if err := s.Close(); err != nil && first == nil {
		first = err
	}
	if s.store != nil {
		if err := s.store.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close stops accepting connections, ends every accepted client connection
// — a listening one is first sent what is queued for it, under
// closeFlushGrace — waits for their handlers and writers, and shuts down the
// overlay transport if one is running.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.listening
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	// The read deadline unblocks a handler's readLine, the write deadline one
	// writing to a client that stopped reading, so the drain below terminates.
	for _, c := range conns {
		_ = c.SetReadDeadline(time.Unix(1, 0))
		_ = c.SetWriteDeadline(time.Now().Add(closeFlushGrace))
	}
	s.connWG.Wait()
	if s.tr != nil {
		if terr := s.tr.Close(); err == nil {
			err = terr
		}
	}
	return err
}

// Addr returns the bound address once serving.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listening == nil {
		return nil
	}
	return s.listening.Addr()
}

// maxLineBytes bounds one protocol line. Oversized lines get a structured
// error and the connection keeps serving; a Scanner would have bailed out
// silently (its token-too-long error was never checked).
const maxLineBytes = 1024 * 1024

var errLineTooLong = errors.New("daemon: line too long")

func (s *Server) handleConn(conn net.Conn) {
	defer s.connWG.Done()
	lst := &listener{conn: conn, done: make(chan struct{})}
	lst.enc = json.NewEncoder(&lst.out)
	lst.wake.L = &lst.mu
	defer func() {
		s.mu.Lock()
		if i := slices.Index(s.listeners, lst); i >= 0 {
			s.listeners = slices.Delete(slices.Clone(s.listeners), i, i+1)
		}
		delete(s.conns, conn)
		s.mu.Unlock()
		if lst.queued {
			lst.finish()
			s.met.listeners.Add(-1)
		}
		_ = conn.Close()
	}()

	br := bufio.NewReaderSize(conn, 64*1024)
	var dec requestDecoder
	for {
		line, err := readLine(br, maxLineBytes)
		if err == errLineTooLong {
			s.send(lst, lst.encode(map[string]interface{}{
				"ok":    false,
				"error": fmt.Sprintf("line too long: limit is %d bytes", maxLineBytes),
			}))
			continue
		}
		if err != nil {
			s.mu.Lock()
			closing := s.closed
			s.mu.Unlock()
			// net.ErrClosed: enqueue dropped this listener, and logged it.
			if err != io.EOF && !errors.Is(err, net.ErrClosed) && !closing {
				s.logf("daemon: connection %s: read: %v", conn.RemoteAddr(), err)
				s.send(lst, lst.encode(map[string]interface{}{"ok": false, "error": "read: " + err.Error()}))
			}
			return
		}
		if line = bytes.TrimSpace(line); len(line) == 0 {
			continue
		}
		req, err := dec.decode(line)
		if err != nil {
			s.send(lst, lst.encode(map[string]interface{}{"ok": false, "error": "bad json: " + err.Error()}))
			continue
		}
		s.send(lst, s.dispatch(req, lst))
	}
}

// readLine returns the next newline-terminated line (or a final
// unterminated one at EOF), valid until the next read. A line exceeding max
// is consumed whole and reported as errLineTooLong, leaving the reader at the
// next line.
func readLine(br *bufio.Reader, max int) ([]byte, error) {
	var long []byte // a line longer than the reader's buffer is assembled here
	for n := 0; ; {
		chunk, err := br.ReadSlice('\n')
		n += len(chunk)
		switch {
		case err == bufio.ErrBufferFull:
			if n <= max { // past max the rest of the line is only drained
				long = append(long, chunk...)
			}
		case err != nil && (err != io.EOF || n == 0):
			return nil, err
		case n > max:
			return nil, errLineTooLong
		case long != nil:
			return append(long, chunk...), nil
		default:
			return chunk, nil
		}
	}
}

// localNode validates req.Node: in range, and — in multi-process mode —
// hosted by this process (subscribing or publishing through a node owned
// elsewhere would split that node's authoritative state). It returns the
// handle by value, which stays on its caller's stack.
func (s *Server) localNode(i int) (cqjoin.Node, error) {
	if i < 0 || i >= s.cluster.Size() {
		return cqjoin.Node{}, fmt.Errorf("node %d out of range [0,%d)", i, s.cluster.Size())
	}
	n := *s.cluster.Node(i)
	if at := s.cluster.Overlay().NodeAt(i); !s.owns(at) {
		return cqjoin.Node{}, fmt.Errorf("node %d (%s) is hosted by peer %s", i, n.Key(), s.members.ownerOf(at.ID()))
	}
	return n, nil
}

// OwnsNode reports whether ring position i is hosted by this process
// under its current membership view. Single-process servers own every
// position. Load harnesses use it to route operations to the right
// daemon without probing for "hosted by peer" errors.
func (s *Server) OwnsNode(i int) bool {
	return i >= 0 && i < s.cluster.Size() && s.owns(s.cluster.Overlay().NodeAt(i))
}

// The acknowledgements of the per-operation requests, appended as
// encoding/json wrote the maps they replace: keys in sorted order.
func appendOKAck(dst []byte) []byte { return append(dst, "{\"ok\":true}\n"...) }

func appendKeyAck(dst []byte, key string) []byte {
	dst = appendJSONString(append(dst, `{"key":`...), key)
	return append(dst, ",\"ok\":true}\n"...)
}

func appendPubAck(dst []byte, pubT int64) []byte {
	dst = strconv.AppendInt(append(dst, `{"ok":true,"pubt":`...), pubT, 10)
	return append(dst, "}\n"...)
}

// publication builds the tuple a publish request asks for, taking its values
// over, refused as Node.Publish refuses it and in the same order: an unknown
// relation, then a value neither a string nor a number, then the arity.
func (s *Server) publication(req *request) (*cqjoin.Tuple, error) {
	schema := s.catalog.Lookup(req.Relation)
	if schema == nil {
		return nil, fmt.Errorf("cqjoin: unknown relation %s", req.Relation)
	}
	if len(req.odd) > 0 {
		return nil, fmt.Errorf("cqjoin: unsupported value type %s for %s", req.odd[0].typ, req.Relation)
	}
	return relation.StampedTuple(schema, req.Values, 0)
}

// dispatch runs one request and returns its reply line, appended to lst's
// reply buffer.
func (s *Server) dispatch(req *request, lst *listener) []byte {
	fail := func(err error) []byte {
		return lst.encode(map[string]interface{}{"ok": false, "error": err.Error()})
	}
	switch req.Op {
	case "subscribe", "subscribe-multi": // older clients send the second for a chain
		node, err := s.localNode(req.Node)
		if err != nil {
			return fail(err)
		}
		q, err := node.Subscribe(req.SQL)
		if err != nil {
			return fail(err)
		}
		return appendKeyAck(lst.out[:0], q.Key())
	case "unsubscribe":
		q := s.cluster.Standing(req.Key)
		if q == nil {
			return fail(fmt.Errorf("unknown query %q", req.Key))
		}
		node := s.cluster.NodeByKey(q.Subscriber())
		if node == nil {
			return fail(fmt.Errorf("subscriber %s is offline", q.Subscriber()))
		}
		if err := node.Unsubscribe(q); err != nil {
			return fail(err)
		}
		return appendOKAck(lst.out[:0])
	case "publish":
		node, err := s.localNode(req.Node)
		if err != nil {
			return fail(err)
		}
		t, err := s.publication(req)
		if err == nil {
			t, err = node.PublishTuple(t)
		}
		if err != nil {
			return fail(err)
		}
		return appendPubAck(lst.out[:0], t.PubT())
	case "listen":
		if !lst.queued {
			lst.queued = true // this reply already travels through the queue
			s.mu.Lock()
			s.listeners = append(slices.Clone(s.listeners), lst)
			s.mu.Unlock()
			s.met.listeners.Add(1)
			s.connWG.Add(1) // under the handler's own count, so never from zero
			go lst.writeLoop(s)
		}
		return appendOKAck(lst.out[:0])
	case "stats":
		tr := s.cluster.Traffic()
		ring := chord.CheckRing(s.cluster.Overlay())
		eval := s.cluster.EvaluatorLoad()
		resp := map[string]interface{}{
			"ok":             true,
			"nodes":          s.cluster.Size(),
			"notifications":  s.cluster.NotificationCount(),
			"hops":           tr.TotalHops(),
			"messages":       tr.TotalMessages(),
			"lost":           tr.TotalLost(),
			"bytes":          tr.TotalBytes(),
			"ring":           ring.String(),
			"ring_ok":        ring.OK(),
			"eval_load_max":  eval.Max,
			"eval_load_gini": eval.Gini,
			"hot_keys":       len(s.cluster.HotKeys()),
		}
		// A section per layer with metrics: "daemon", "codec", "engine",
		// "transport", and "chord", the traffic ledger by message kind: its
		// messages, hops and bytes sum to the totals above.
		metrics := s.reg.Snapshot()
		for name, c := range s.cluster.Engine().Census() {
			metrics["engine.census."+name+".sum"] = float64(c.Sum)
			metrics["engine.census."+name+".max"] = float64(c.Max)
		}
		msgs, hops := tr.Snapshot()
		for kind := range hops {
			metrics["chord.msgs."+kind] = float64(msgs[kind])
			metrics["chord.hops."+kind] = float64(hops[kind])
			metrics["chord.bytes."+kind] = float64(tr.Bytes(kind))
		}
		metrics["chord.handbacks"] = float64(s.cluster.Overlay().Handbacks())
		for name, v := range metrics {
			layer, _, _ := strings.Cut(name, ".")
			section, _ := resp[layer].(map[string]float64)
			if section == nil {
				section = make(map[string]float64)
				resp[layer] = section
			}
			section[name] = v
		}
		if s.members != nil {
			v := s.members.view()
			resp["membership"] = map[string]interface{}{
				"version": v.Version,
				"procs":   v.Procs,
			}
		}
		return lst.encode(resp)
	case "leave":
		if err := s.LeaveOverlay(); err != nil {
			return fail(err)
		}
		return appendOKAck(lst.out[:0])
	case "overlay-config":
		// Enough for `cqjoind -join` to build an identical overlay. Peers
		// reflects the live membership, not the boot-time list, so a
		// process can join after earlier joins and leaves.
		peers := s.cfg.Peers
		if s.members != nil {
			peers = s.members.view().Procs
		}
		return lst.encode(map[string]interface{}{
			"ok":            true,
			"nodes":         s.cfg.Nodes,
			"algorithm":     s.cfg.Algorithm,
			"schema":        s.cfg.SchemaDSL,
			"jfrt":          s.cfg.UseJFRT,
			"seed":          s.cfg.Seed,
			"hot_threshold": s.cfg.HotKeyThreshold,
			"hot_replicas":  s.cfg.HotKeyReplicas,
			"peers":         peers,
		})
	default:
		return fail(fmt.Errorf("unknown op %q", req.Op))
	}
}
