package chord

import (
	"fmt"
	"sort"
	"sync/atomic"

	"cqjoin/internal/id"
	"cqjoin/internal/lockdep"
	"cqjoin/internal/metrics"
	"cqjoin/internal/obs"
	"cqjoin/internal/sim"
)

// Config parameterizes a simulated overlay. Every network builds its own
// traffic ledger and logical clock.
type Config struct {
	// SuccessorListLen is the length r of each node's successor list
	// (Section 2.2: "in practice even small values of r are enough").
	// Zero means the default of 8. Set by tests; everything else runs the
	// default.
	SuccessorListLen int
}

const defaultSuccessorListLen = 8

// Network is a simulated Chord overlay: the set of alive nodes, a sorted
// ring index used for O(log N) membership bookkeeping (never on the routing
// data path — routing always walks finger tables), the shared logical clock
// and the traffic ledger.
type Network struct {
	mu    lockdep.RWMutex[networkMu]
	byKey map[string]*Node
	ring  []*Node // alive nodes in ascending identifier order

	succListLen int
	traffic     *metrics.Traffic
	clock       *sim.Clock
	handbacks   obs.Counter // hops back to the owner after a final hop (land)

	interceptor atomic.Pointer[Interceptor] // SetInterceptor's; nil: none

	sizer func(msg, prev Message) (size, shared int) // SetSizer's; nil: no bytes charged

	// transport is the pluggable delivery transport (transport.go), never
	// nil once New returns. simT is the in-process default, boxed once so
	// that restoring it stores a pointer and a delivery loads one.
	transport atomic.Pointer[Transport]
	simT      Transport
}

type networkMu struct{} // Network.mu's lock class

// SetInterceptor installs (or, with nil, removes) the delivery interceptor.
// Every subsequent message delivery — routed, direct or relayed inside a
// multisend — passes through it. There is exactly one slot: fault layers
// that compose should wrap each other before installing. It may be called
// at any time, also while messages are in flight: a delivery reads the slot
// once, atomically, and runs the interceptor it read.
func (net *Network) SetInterceptor(ic Interceptor) {
	if ic == nil {
		net.interceptor.Store(nil)
		return
	}
	net.interceptor.Store(&ic)
}

// SetSizer installs the function that prices a message for the byte ledger:
// the length of msg's encoding behind prev, the message before it in its frame
// (nil: it leads the frame, or travels alone), and shared, how many bytes
// longer it is in full — what prev says for it; size 0 for a message with no
// wire form. Every overlay hop then retransmits the frame of what is aboard, in
// which a thing is said once: a message alone for h hops moves size*h bytes.
// Install it before the network carries the messages it prices; until then,
// and for a message it gives size 0, no bytes are charged.
func (net *Network) SetSizer(size func(msg, prev Message) (size, shared int)) { net.sizer = size }

// Interceptor returns the installed delivery interceptor, or nil.
func (net *Network) Interceptor() Interceptor {
	if ic := net.interceptor.Load(); ic != nil {
		return *ic
	}
	return nil
}

// New creates an empty overlay.
func New(cfg Config) *Network {
	if cfg.SuccessorListLen <= 0 {
		cfg.SuccessorListLen = defaultSuccessorListLen
	}
	net := &Network{
		byKey:       make(map[string]*Node),
		succListLen: cfg.SuccessorListLen,
		traffic:     metrics.NewTraffic(),
		clock:       &sim.Clock{},
	}
	net.simT = &simTransport{net: net}
	net.transport.Store(&net.simT)
	return net
}

// Traffic returns the network's traffic ledger.
func (net *Network) Traffic() *metrics.Traffic { return net.traffic }

// Handbacks returns how many hops a message was handed back toward its owner
// after a final hop (land). A daemon reports them as "chord.handbacks".
func (net *Network) Handbacks() int64 { return net.handbacks.Value() }

// Clock returns the network's logical clock.
func (net *Network) Clock() *sim.Clock { return net.clock }

// SuccessorListLen returns r, the length of each node's successor list.
func (net *Network) SuccessorListLen() int { return net.succListLen }

// Size returns the number of alive nodes.
func (net *Network) Size() int {
	net.mu.RLock()
	defer net.mu.RUnlock()
	return len(net.ring)
}

// Nodes returns the alive nodes in ascending identifier order.
func (net *Network) Nodes() []*Node {
	net.mu.RLock()
	defer net.mu.RUnlock()
	out := make([]*Node, len(net.ring))
	copy(out, net.ring)
	return out
}

// NodeAt returns the alive node at ring position i modulo the ring's size —
// Nodes()[i mod Size()] without copying the ring — or nil on an empty ring.
func (net *Network) NodeAt(i int) *Node {
	net.mu.RLock()
	defer net.mu.RUnlock()
	n := len(net.ring)
	if n == 0 {
		return nil
	}
	return net.ring[((i%n)+n)%n]
}

// NodeByKey returns the alive node with the given key, or nil.
func (net *Network) NodeByKey(key string) *Node {
	net.mu.RLock()
	defer net.mu.RUnlock()
	n := net.byKey[key]
	if n == nil || !n.Alive() {
		return nil
	}
	return n
}

// Join adds a node with the given key to the overlay, exactly as Section 2.2
// describes the end state of a completed join: the new node discovers its
// successor, neighbor pointers are corrected, the node builds its finger
// table, and its successor transfers the keys in (pred(n), n] to it.
//
// The routing cost of the join lookup is charged to the "chord-join" kind.
// Returns an error when the key is already present.
func (net *Network) Join(key string) (*Node, error) {
	return net.JoinAt(key, id.Hash(key))
}

// JoinAt joins a node at an explicitly chosen ring position instead of
// Hash(key). This is the identifier-moving mechanism of Section 4.7.2
// (Figure 4.7): an underloaded node can place itself immediately at a hot
// identifier and take over its arc. Notifications for an offline
// subscriber are still addressed to Hash(key), so a node that moved away
// from its natural position relies on the direct-IP delivery path while
// online.
func (net *Network) JoinAt(key string, nid id.ID) (*Node, error) {
	n, bootstrap, err := net.admit(key, nid)
	if err != nil {
		return nil, err
	}
	if bootstrap != nil {
		// Charge the join lookup: finding Successor(id(n)) from the
		// bootstrap node. The ring index already contains n, so route from
		// the bootstrap's view using fingers built before insertion; cost is
		// what matters here, correctness of pointers is established below.
		_, hops, err := bootstrap.route(nid)
		if err == nil {
			net.traffic.Record("chord-join", hops)
		} else {
			net.traffic.RecordHopsOnly("chord-join", hops)
		}
	}

	net.repairAround(n)
	net.buildFingers(n)

	// Successor hands over the keys the new node is now responsible for.
	succ := n.Successor()
	if succ != n {
		lo := n.Predecessor()
		var loID id.ID
		if lo != nil {
			loID = lo.ID()
		} else {
			loID = succ.ID()
		}
		if h, ok := succ.Handler().(KeyTransferrer); ok {
			h.TransferKeys(succ, n, loID, n.ID())
		}
	}
	return n, nil
}

// JoinProtocol adds a node to the overlay using only the join protocol of
// Zave's corrected Chord, with none of JoinAt's oracle repairs: the joiner
// looks up its successor through a bootstrap node and initializes its
// successor list from it; its predecessor stays nil, its finger table
// empty (routing falls back on the successor list until fix-fingers fills
// it). The ring splice and the key hand-off happen when stabilization next
// runs — the joiner notifies its successor, the successor adopts it and
// transfers the keys in (oldPred, joiner] via the KeyTransferrer seam.
//
// The membership index is still updated immediately, but only as the test
// oracle (OracleSuccessor, RingIntact); the routing data path never reads
// it.
func (net *Network) JoinProtocol(key string) (*Node, error) {
	nid := id.Hash(key)
	n, bootstrap, err := net.admit(key, nid)
	if err != nil {
		return nil, err
	}
	if bootstrap == nil {
		// First node: a singleton ring, its own successor.
		return n, nil
	}
	// Find Successor(id(n)) from the bootstrap. No pointer anywhere
	// references n yet, so the lookup lands on the node that owned n's
	// identifier before the join — exactly the successor the protocol
	// wants. The lookup hops are charged like any join lookup.
	succ, hops, err := bootstrap.route(nid)
	if err != nil || succ == n || !succ.Alive() {
		net.traffic.RecordHopsOnly("chord-join", hops)
		// The aborted joiner must not linger in the index: nothing points
		// at it, and leaving it "alive" with no successor would strand the
		// ring oracle on a node the protocol never spliced in.
		net.removeQuiet(n)
		return nil, fmt.Errorf("chord: join %q: successor lookup failed: %w", key, err)
	}
	net.traffic.Record("chord-join", hops)

	// Initialize the successor list from the successor's view, and learn a
	// tentative predecessor from it as well — the successor's current
	// predecessor always precedes the joiner (the lookup proved the joiner
	// lies in (succ.pred, succ]). Without it the nil-predecessor rule would
	// make the joiner claim the whole ring until its predecessor's first
	// notify. Everything else converges through stabilize/notify/
	// fix-fingers.
	list := make([]*Node, 0, net.succListLen)
	list = append(list, succ)
	for _, s := range succ.SuccessorList() {
		if len(list) >= net.succListLen {
			break
		}
		if s != nil && s.Alive() && s != n {
			list = append(list, s)
		}
	}
	pred := succ.Predecessor()
	n.mu.Lock()
	v := n.view.Load().withSuccs(entries(list))
	if pred != nil && pred.Alive() && pred != n {
		v = v.withPred(pred)
	}
	n.view.Store(v)
	n.mu.Unlock()
	return n, nil
}

// admit makes the node of key at ring position nid and adds it to the
// membership index, the start both join modes share. It returns the node and
// the bootstrap a joiner looks its successor up from: an arbitrary node
// already in the ring, nil on an empty one. A key already in the overlay, or
// an occupied position, is refused.
func (net *Network) admit(key string, nid id.ID) (n, bootstrap *Node, err error) {
	n = newNode(net, key, nid)

	net.mu.Lock()
	defer net.mu.Unlock()
	if old, ok := net.byKey[key]; ok && old.Alive() {
		return nil, nil, fmt.Errorf("chord: join %q: key already in overlay", key)
	}
	if i := net.ringIndexLocked(nid); i < len(net.ring) && net.ring[i].id == nid {
		return nil, nil, fmt.Errorf("chord: join %q: ring position %s already occupied by %s", key, nid.Short(), net.ring[i])
	}
	if len(net.ring) > 0 {
		bootstrap = net.ring[0]
	}
	net.insertLocked(n)
	return n, bootstrap, nil
}

// handOver gives everything departing node n stored to its successor, and
// returns n's successor and predecessor as they were: the key transfer both
// leave modes share.
func (n *Node) handOver() (succ, pred *Node) {
	succ, pred = n.Successor(), n.Predecessor()
	if succ != n && succ != nil {
		if h, ok := n.Handler().(KeyTransferrer); ok {
			h.TransferKeys(n, succ, n.ID(), n.ID())
		}
	}
	return succ, pred
}

// LeaveProtocol removes a node voluntarily using only the protocol: the
// departing node hands its keys to its successor, tells its successor to
// adopt its predecessor, and points its predecessor's successor chain past
// itself. No oracle repairs run; remaining stale pointers (other nodes'
// fingers and successor lists) heal through stabilization.
func (net *Network) LeaveProtocol(n *Node) {
	if !n.Alive() {
		return
	}
	succ, pred := n.handOver()
	net.removeQuiet(n)
	if succ == nil || succ == n || !succ.Alive() {
		return
	}
	// Courtesy messages of a polite leave: the successor drops its pointer
	// to n and hears from n's predecessor immediately instead of waiting a
	// stabilization round.
	succ.CheckPredecessor()
	if pred != nil && pred.Alive() {
		succ.notify(pred)
	}
}

// FailProtocol removes a node abruptly without any repair at all — not
// even the neighbor corrections Network.Fail performs. Detection is left
// entirely to CheckPredecessor and successor-list failover, which is what
// the protocol churn tests exercise.
func (net *Network) FailProtocol(n *Node) {
	if !n.Alive() {
		return
	}
	net.removeQuiet(n)
}

// removeQuiet takes n out of the membership index and marks it dead,
// leaving every pointer that references it stale. The protocol heals them.
func (net *Network) removeQuiet(n *Node) {
	net.mu.Lock()
	defer net.mu.Unlock()
	n.alive.Store(false)
	delete(net.byKey, n.key)
	i := net.ringIndexLocked(n.id)
	if i < len(net.ring) && net.ring[i] == n {
		net.ring = append(net.ring[:i], net.ring[i+1:]...)
	}
}

// AddNodes joins count nodes named <prefix>0 .. <prefix>(count-1) and then
// rebuilds all pointers exactly. It is the fast path for constructing the
// large static networks of the experiments (up to 10^4 nodes).
func (net *Network) AddNodes(prefix string, count int) []*Node {
	nodes := make([]*Node, 0, count)
	net.mu.Lock()
	for i := 0; i < count; i++ {
		key := fmt.Sprintf("%s%d", prefix, i)
		if _, ok := net.byKey[key]; ok {
			continue
		}
		n := newNode(net, key, id.Hash(key))
		net.insertLocked(n)
		nodes = append(nodes, n)
	}
	net.mu.Unlock()
	net.RepairAll()
	return nodes
}

// Leave removes a node voluntarily (Section 2.2): it transfers its keys to
// its successor and neighbor pointers are corrected.
func (net *Network) Leave(n *Node) {
	if !n.Alive() {
		return
	}
	succ, pred := n.handOver()
	net.remove(n)
	if succ != nil && succ.Alive() {
		net.repairAround(succ)
	} else if pred != nil && pred.Alive() {
		net.repairAround(pred)
	}
}

// Fail removes a node abruptly, without key transfer, modelling a crash.
// Routing recovers through successor lists; call RepairAll (or run the
// stabilization protocol) to restore exact pointers.
func (net *Network) Fail(n *Node) {
	if !n.Alive() {
		return
	}
	net.remove(n)
}

// remove is removeQuiet plus the correction of n's immediate neighbors'
// pointers, so successor chains stay valid, as Chord's stabilization would
// make them within one round.
func (net *Network) remove(n *Node) {
	net.removeQuiet(n)
	net.mu.Lock()
	defer net.mu.Unlock()
	if len(net.ring) == 0 {
		return
	}
	succIdx := net.ringIndexLocked(n.id) % len(net.ring)
	succ := net.ring[succIdx]
	predIdx := (succIdx - 1 + len(net.ring)) % len(net.ring)
	pred := net.ring[predIdx]
	pred.mu.Lock()
	pred.view.Store(pred.view.Load().withSuccs(net.successorsOfLocked(predIdx)))
	pred.mu.Unlock()
	succ.mu.Lock()
	succ.view.Store(succ.view.Load().withPred(pred))
	succ.mu.Unlock()
}

// insertLocked adds n to the membership index. Callers hold net.mu.
func (net *Network) insertLocked(n *Node) {
	net.byKey[n.key] = n
	i := net.ringIndexLocked(n.id)
	net.ring = append(net.ring, nil)
	copy(net.ring[i+1:], net.ring[i:])
	net.ring[i] = n
}

// ringIndexLocked returns the position of the first ring node with
// identifier >= k. Callers hold net.mu (read or write).
func (net *Network) ringIndexLocked(k id.ID) int {
	return sort.Search(len(net.ring), func(i int) bool {
		return !net.ring[i].id.Less(k)
	})
}

// OracleSuccessor returns Successor(k) computed from the membership index.
// It is the ground truth used by tests and by exact pointer repair; the
// message data path never calls it.
func (net *Network) OracleSuccessor(k id.ID) *Node {
	net.mu.RLock()
	defer net.mu.RUnlock()
	if len(net.ring) == 0 {
		return nil
	}
	i := net.ringIndexLocked(k) % len(net.ring)
	return net.ring[i]
}

// successorsOfLocked returns the successor list for the node at ring index
// i. Callers hold net.mu.
func (net *Network) successorsOfLocked(i int) []routeEntry {
	n := len(net.ring)
	r := net.succListLen
	if r > n-1 {
		r = n - 1
	}
	if r == 0 {
		// Singleton ring: a node is its own successor.
		return []routeEntry{entry(net.ring[i])}
	}
	out := make([]routeEntry, 0, r)
	for j := 1; j <= r; j++ {
		out = append(out, entry(net.ring[(i+j)%n]))
	}
	return out
}

// repairAround rebuilds exact predecessor/successor pointers for n and its
// ring neighbors (the end state one stabilization round would reach).
func (net *Network) repairAround(n *Node) {
	net.mu.RLock()
	defer net.mu.RUnlock()
	i := net.ringIndexLocked(n.id)
	if i >= len(net.ring) || net.ring[i] != n {
		return
	}
	cnt := len(net.ring)
	// Fix n, its predecessor and the nodes whose successor lists now
	// include n (the r nodes preceding it).
	for d := -net.succListLen; d <= 1; d++ {
		j := ((i+d)%cnt + cnt) % cnt
		m := net.ring[j]
		pred := net.ring[((j-1)%cnt+cnt)%cnt]
		if pred == m {
			pred = nil
		}
		m.mu.Lock()
		m.view.Store(m.view.Load().withPred(pred).withSuccs(net.successorsOfLocked(j)))
		m.mu.Unlock()
	}
}

// buildFingers computes n's exact finger table from the membership index.
func (net *Network) buildFingers(n *Node) {
	net.mu.RLock()
	defer net.mu.RUnlock()
	if len(net.ring) == 0 {
		return
	}
	table := net.fingersOfLocked(n)
	n.mu.Lock()
	defer n.mu.Unlock()
	n.view.Store(n.view.Load().withFingers(fingerRuns(n, &table)))
}

// fingersOfLocked returns n's exact finger table, entry j the owner of
// id(n) + 2^j. Callers hold net.mu, on a ring that is not empty.
//
// Entry 0 is next, the first ring node past id(n), n itself included or not.
// With d its clockwise distance and b = d.BitLen(), every j < b has
// 2^j <= 2^(b-1) <= d, so id(n) + 2^j lies in (id(n), id(next)], where no
// other node is: entry j is next, with no search. Only the entries from b up,
// about log2 N of them, are searched (all of them on a ring of one node,
// where d is 0).
func (net *Network) fingersOfLocked(n *Node) (table [id.Bits]*Node) {
	next := net.ring[net.ringIndexLocked(n.id.AddPow2(0))%len(net.ring)]
	b := id.Distance(n.id, next.id).BitLen()
	for j := range table {
		if j < b {
			table[j] = next
		} else {
			table[j] = net.ring[net.ringIndexLocked(n.id.AddPow2(uint(j)))%len(net.ring)]
		}
	}
	return table
}

// MoveNode re-positions an alive node at a new ring identifier — the
// load-balancing move of Section 4.7.2 (Figure 4.7). The node leaves
// voluntarily (handing its stored keys to its successor) and immediately
// rejoins at newID (receiving the keys of its new arc). The returned node
// replaces the old one; the old *Node value is dead.
func (net *Network) MoveNode(n *Node, newID id.ID) (*Node, error) {
	if !n.Alive() {
		return nil, fmt.Errorf("chord: move of departed node %s", n)
	}
	key := n.Key()
	handler := n.Handler()
	net.Leave(n)
	moved, err := net.JoinAt(key, newID)
	if err != nil {
		return nil, err
	}
	// Reinstall the old handler before the join hand-off is requested by
	// the application layer; chord's own hand-off already ran inside
	// JoinAt against whatever handler the successor had.
	moved.SetHandler(handler)
	return moved, nil
}

// RepairAll rebuilds exact predecessor pointers, successor lists and finger
// tables for every node — the fixed point the periodic stabilization
// protocol converges to. Experiments on static networks call it once after
// construction. A table costs about log2 N searches of the ring index, not
// 160: every finger that starts short of a node's successor is that
// successor (fingersOfLocked).
func (net *Network) RepairAll() {
	net.mu.RLock()
	defer net.mu.RUnlock()
	cnt := len(net.ring)
	for i, n := range net.ring {
		v := &routeView{succs: net.successorsOfLocked(i)}
		if cnt > 1 {
			v.pred = entry(net.ring[((i-1)%cnt+cnt)%cnt])
		}
		table := net.fingersOfLocked(n)
		v.fingers = fingerRuns(n, &table)
		n.mu.Lock()
		n.view.Store(v)
		n.mu.Unlock()
	}
}
