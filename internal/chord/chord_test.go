package chord

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"cqjoin/internal/id"
)

// testMsg is a trivial Message for routing tests.
type testMsg struct {
	kind    string
	payload int
}

func (m testMsg) Kind() string { return m.kind }

// recorder collects delivered messages per node.
type recorder struct {
	mu   sync.Mutex
	seen map[string][]Message
}

func newRecorder() *recorder { return &recorder{seen: make(map[string][]Message)} }

func (r *recorder) HandleMessage(on *Node, msg Message) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seen[on.Key()] = append(r.seen[on.Key()], msg)
}

func (r *recorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, v := range r.seen {
		n += len(v)
	}
	return n
}

func buildNet(t testing.TB, n int) *Network {
	t.Helper()
	net := New(Config{})
	net.AddNodes("node", n)
	if net.Size() != n {
		t.Fatalf("built %d nodes, want %d", net.Size(), n)
	}
	return net
}

func TestRingSortedAndPointersExact(t *testing.T) {
	net := buildNet(t, 64)
	nodes := net.Nodes()
	if !sort.SliceIsSorted(nodes, func(i, j int) bool { return nodes[i].ID().Less(nodes[j].ID()) }) {
		t.Fatal("ring not sorted by identifier")
	}
	for i, n := range nodes {
		wantSucc := nodes[(i+1)%len(nodes)]
		if n.Successor() != wantSucc {
			t.Fatalf("node %d successor wrong", i)
		}
		wantPred := nodes[(i-1+len(nodes))%len(nodes)]
		if n.Predecessor() != wantPred {
			t.Fatalf("node %d predecessor wrong", i)
		}
	}
}

func TestFingerDefinition(t *testing.T) {
	net := buildNet(t, 32)
	for _, n := range net.Nodes() {
		for j := 1; j <= id.Bits; j += 13 { // sample entries
			start := n.ID().AddPow2(uint(j - 1))
			want := net.OracleSuccessor(start)
			if got := n.Finger(j); got != want {
				t.Fatalf("node %s finger %d = %s, want %s", n, j, got, want)
			}
		}
	}
}

func TestOwnsKeyPartition(t *testing.T) {
	net := buildNet(t, 50)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		var k id.ID
		rng.Read(k[:])
		owners := 0
		for _, n := range net.Nodes() {
			if n.OwnsKey(k) {
				owners++
			}
		}
		if owners != 1 {
			t.Fatalf("key %s owned by %d nodes, want exactly 1", k.Short(), owners)
		}
	}
}

func TestRouteMatchesOracle(t *testing.T) {
	net := buildNet(t, 128)
	nodes := net.Nodes()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 1000; i++ {
		src := nodes[rng.Intn(len(nodes))]
		var k id.ID
		rng.Read(k[:])
		got, _, err := src.route(k)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		if want := net.OracleSuccessor(k); got != want {
			t.Fatalf("route(%s) from %s = %s, want %s", k.Short(), src, got, want)
		}
	}
}

func TestRouteHopsLogarithmic(t *testing.T) {
	net := buildNet(t, 1024)
	nodes := net.Nodes()
	rng := rand.New(rand.NewSource(13))
	total, samples := 0, 2000
	for i := 0; i < samples; i++ {
		src := nodes[rng.Intn(len(nodes))]
		var k id.ID
		rng.Read(k[:])
		_, hops, err := src.route(k)
		if err != nil {
			t.Fatalf("route: %v", err)
		}
		total += hops
	}
	avg := float64(total) / float64(samples)
	// Finger hops alone average ½·log2 N; the successor list (r = 8) finishes
	// the last ½·log2 r of them in one, so the mean lies below that.
	if half := math.Log2(float64(len(nodes))) / 2; avg > half {
		t.Fatalf("average hops %.2f exceeds ½·log2(N)=%.2f", avg, half)
	}
	if avg < 1 {
		t.Fatalf("average hops %.2f suspiciously low", avg)
	}
}

func TestSendDeliversToResponsibleNode(t *testing.T) {
	net := buildNet(t, 64)
	rec := newRecorder()
	for _, n := range net.Nodes() {
		n.SetHandler(rec)
	}
	src := net.Nodes()[0]
	target := id.Hash("R+A+some-value")
	dst, hops, err := src.Send(testMsg{kind: "test"}, target)
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if want := net.OracleSuccessor(target); dst != want {
		t.Fatalf("delivered to %s, want %s", dst, want)
	}
	if len(rec.seen[dst.Key()]) != 1 {
		t.Fatal("handler not invoked exactly once")
	}
	if got := net.Traffic().Hops("test"); got != int64(hops) {
		t.Fatalf("traffic hops = %d, want %d", got, hops)
	}
	if got := net.Traffic().Messages("test"); got != 1 {
		t.Fatalf("traffic messages = %d, want 1", got)
	}
}

func TestSendToSelfCostsZeroHops(t *testing.T) {
	net := buildNet(t, 16)
	n := net.Nodes()[3]
	// A key the node owns: its own identifier.
	dst, hops, err := n.Send(testMsg{kind: "self"}, n.ID())
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if dst != n || hops != 0 {
		t.Fatalf("self send: dst=%s hops=%d", dst, hops)
	}
}

func TestSingletonNetwork(t *testing.T) {
	net := New(Config{})
	n, err := net.Join("only")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	if n.Successor() != n {
		t.Fatal("singleton node must be its own successor")
	}
	var k id.ID
	if !n.OwnsKey(k) {
		t.Fatal("singleton node must own every key")
	}
	dst, hops, err := n.Send(testMsg{kind: "x"}, id.Hash("anything"))
	if err != nil || dst != n || hops != 0 {
		t.Fatalf("singleton send: dst=%v hops=%d err=%v", dst, hops, err)
	}
}

func TestMultisendDeliversAll(t *testing.T) {
	net := buildNet(t, 128)
	rec := newRecorder()
	for _, n := range net.Nodes() {
		n.SetHandler(rec)
	}
	src := net.Nodes()[0]
	rng := rand.New(rand.NewSource(17))
	const k = 40
	batch := make([]Deliverable, k)
	wantOwners := make(map[string]int)
	for i := range batch {
		var target id.ID
		rng.Read(target[:])
		batch[i] = Deliverable{Target: target, Msg: testMsg{kind: "ms", payload: i}}
		wantOwners[net.OracleSuccessor(target).Key()]++
	}
	recipients, hops, err := src.Multisend(batch, nil)
	if err != nil {
		t.Fatalf("Multisend: %v", err)
	}
	for i, dst := range recipients {
		if want := net.OracleSuccessor(batch[i].Target); dst != want {
			t.Fatalf("recipient %d = %v, want %s", i, dst, want)
		}
	}
	if rec.count() != k {
		t.Fatalf("delivered %d messages, want %d", rec.count(), k)
	}
	for key, want := range wantOwners {
		if got := len(rec.seen[key]); got != want {
			t.Fatalf("node %s received %d, want %d", key, got, want)
		}
	}
	if hops <= 0 {
		t.Fatalf("multisend hops = %d", hops)
	}
	if got := net.Traffic().Messages("ms"); got != k {
		t.Fatalf("traffic messages = %d, want %d", got, k)
	}
	if got := net.Traffic().Hops("ms"); got != int64(hops) {
		t.Fatalf("traffic hops = %d, want %d", got, hops)
	}
}

// Figure 4.8's claim: the recursive multisend uses fewer hops than k
// iterative sends, and the gap grows with k.
func TestMultisendBeatsIterative(t *testing.T) {
	net := buildNet(t, 512)
	src := net.Nodes()[0]
	rng := rand.New(rand.NewSource(19))
	for _, k := range []int{8, 32, 128} {
		batch := make([]Deliverable, k)
		for i := range batch {
			var target id.ID
			rng.Read(target[:])
			batch[i] = Deliverable{Target: target, Msg: testMsg{kind: "a"}}
		}
		_, recHops, err := src.Multisend(batch, nil)
		if err != nil {
			t.Fatalf("Multisend: %v", err)
		}
		_, iterHops, err := src.MultisendIterative(batch)
		if err != nil {
			t.Fatalf("MultisendIterative: %v", err)
		}
		if recHops >= iterHops {
			t.Fatalf("k=%d: recursive %d hops >= iterative %d hops", k, recHops, iterHops)
		}
	}
}

func TestMultisendEmptyBatch(t *testing.T) {
	net := buildNet(t, 8)
	recips, hops, err := net.Nodes()[0].Multisend(nil, nil)
	if err != nil || hops != 0 || len(recips) != 0 {
		t.Fatalf("empty multisend: recips=%v hops=%d err=%v", recips, hops, err)
	}
}

func TestDirectSendSingleHop(t *testing.T) {
	net := buildNet(t, 8)
	rec := newRecorder()
	dst := net.Nodes()[5]
	dst.SetHandler(rec)
	net.Nodes()[0].DirectSend(testMsg{kind: "notify"}, dst)
	if rec.count() != 1 {
		t.Fatal("direct send not delivered")
	}
	if got := net.Traffic().Hops("notify"); got != 1 {
		t.Fatalf("direct send hops = %d, want 1", got)
	}
}

func TestJoinTransfersNothingWithoutHandler(t *testing.T) {
	net := New(Config{})
	for i := 0; i < 10; i++ {
		if _, err := net.Join(fmt.Sprintf("n%d", i)); err != nil {
			t.Fatalf("Join: %v", err)
		}
	}
	if net.Size() != 10 {
		t.Fatalf("size = %d", net.Size())
	}
	// Pointer exactness after sequential joins.
	nodes := net.Nodes()
	for i, n := range nodes {
		if n.Successor() != nodes[(i+1)%len(nodes)] {
			t.Fatalf("join left wrong successor at %d", i)
		}
	}
}

func TestJoinDuplicateKeyRejected(t *testing.T) {
	net := New(Config{})
	if _, err := net.Join("dup"); err != nil {
		t.Fatalf("first join: %v", err)
	}
	if _, err := net.Join("dup"); err == nil {
		t.Fatal("duplicate join accepted")
	}
}

func TestLeaveRepairsRing(t *testing.T) {
	net := buildNet(t, 32)
	nodes := net.Nodes()
	leaving := nodes[10]
	net.Leave(leaving)
	if leaving.Alive() {
		t.Fatal("left node still alive")
	}
	if net.Size() != 31 {
		t.Fatalf("size = %d", net.Size())
	}
	// Ring remains routable and matches the oracle.
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 200; i++ {
		var k id.ID
		rng.Read(k[:])
		src := net.Nodes()[rng.Intn(net.Size())]
		got, _, err := src.route(k)
		if err != nil {
			t.Fatalf("route after leave: %v", err)
		}
		if want := net.OracleSuccessor(k); got != want {
			t.Fatalf("route after leave: got %s want %s", got, want)
		}
	}
}

func TestFailKeepsRoutingCorrect(t *testing.T) {
	net := buildNet(t, 64)
	rng := rand.New(rand.NewSource(29))
	// Fail 10 random nodes abruptly.
	for i := 0; i < 10; i++ {
		nodes := net.Nodes()
		net.Fail(nodes[rng.Intn(len(nodes))])
	}
	if net.Size() != 54 {
		t.Fatalf("size = %d", net.Size())
	}
	for i := 0; i < 300; i++ {
		var k id.ID
		rng.Read(k[:])
		src := net.Nodes()[rng.Intn(net.Size())]
		got, _, err := src.route(k)
		if err != nil {
			t.Fatalf("route after failures: %v", err)
		}
		if want := net.OracleSuccessor(k); got != want {
			t.Fatalf("route after failures: got %s want %s", got, want)
		}
	}
}

func TestStabilizationConvergesAfterChurn(t *testing.T) {
	net := buildNet(t, 48)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 8; i++ {
		nodes := net.Nodes()
		net.Fail(nodes[rng.Intn(len(nodes))])
	}
	// Run the real maintenance protocol instead of oracle repair.
	net.StabilizeAll(3)
	nodes := net.Nodes()
	for i, n := range nodes {
		if got, want := n.Successor(), nodes[(i+1)%len(nodes)]; got != want {
			t.Fatalf("after stabilization node %d successor = %s, want %s", i, got, want)
		}
		if got, want := n.Predecessor(), nodes[(i-1+len(nodes))%len(nodes)]; got != want {
			t.Fatalf("after stabilization node %d predecessor = %s, want %s", i, got, want)
		}
	}
	// Fingers refreshed by FixFinger match the oracle.
	for _, n := range nodes {
		for j := 1; j <= id.Bits; j += 31 {
			start := n.ID().AddPow2(uint(j - 1))
			if got, want := n.Finger(j), net.OracleSuccessor(start); got != want {
				t.Fatalf("after stabilization finger %d of %s = %s, want %s", j, n, got, want)
			}
		}
	}
}

func TestConcurrentSends(t *testing.T) {
	net := buildNet(t, 64)
	rec := newRecorder()
	for _, n := range net.Nodes() {
		n.SetHandler(rec)
	}
	nodes := net.Nodes()
	var wg sync.WaitGroup
	const workers, sends = 8, 100
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < sends; i++ {
				src := nodes[rng.Intn(len(nodes))]
				var k id.ID
				rng.Read(k[:])
				if _, _, err := src.Send(testMsg{kind: "conc"}, k); err != nil {
					t.Errorf("concurrent send: %v", err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if rec.count() != workers*sends {
		t.Fatalf("delivered %d, want %d", rec.count(), workers*sends)
	}
}

func TestNodeByKey(t *testing.T) {
	net := buildNet(t, 8)
	n := net.NodeByKey("node3")
	if n == nil || n.Key() != "node3" {
		t.Fatal("NodeByKey failed")
	}
	net.Leave(n)
	if net.NodeByKey("node3") != nil {
		t.Fatal("NodeByKey returned departed node")
	}
	if net.NodeByKey("nope") != nil {
		t.Fatal("NodeByKey invented a node")
	}
}

func TestFingerPanicsOutOfRange(t *testing.T) {
	net := buildNet(t, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("Finger(0) did not panic")
		}
	}()
	net.Nodes()[0].Finger(0)
}

// keyMover implements KeyTransferrer recording transfer calls.
type keyMover struct {
	mu    sync.Mutex
	calls []string
}

func (k *keyMover) HandleMessage(on *Node, msg Message) {}
func (k *keyMover) TransferKeys(from, to *Node, lo, hi id.ID) {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.calls = append(k.calls, fmt.Sprintf("%s->%s", from.Key(), to.Key()))
}

func TestJoinInvokesKeyTransfer(t *testing.T) {
	net := buildNet(t, 16)
	km := &keyMover{}
	for _, n := range net.Nodes() {
		n.SetHandler(km)
	}
	newNode, err := net.Join("late-joiner")
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	km.mu.Lock()
	defer km.mu.Unlock()
	if len(km.calls) != 1 {
		t.Fatalf("transfer calls = %v, want exactly one", km.calls)
	}
	want := fmt.Sprintf("%s->%s", newNode.Successor().Key(), newNode.Key())
	if km.calls[0] != want {
		t.Fatalf("transfer = %s, want %s", km.calls[0], want)
	}
}

func TestLeaveInvokesKeyTransferToSuccessor(t *testing.T) {
	net := buildNet(t, 16)
	km := &keyMover{}
	for _, n := range net.Nodes() {
		n.SetHandler(km)
	}
	leaving := net.Nodes()[4]
	succ := leaving.Successor()
	net.Leave(leaving)
	km.mu.Lock()
	defer km.mu.Unlock()
	if len(km.calls) != 1 || km.calls[0] != fmt.Sprintf("%s->%s", leaving.Key(), succ.Key()) {
		t.Fatalf("transfer calls = %v", km.calls)
	}
}
