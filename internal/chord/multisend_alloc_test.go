package chord

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	"cqjoin/internal/id"
)

// ackTransport answers every delivery from one array — a lone one with its
// first ack — and runs no handler, so a walk's allocations are Multisend's own.
type ackTransport struct{ acks [16]bool }

func (t *ackTransport) Deliver(_, _ *Node, _ Message) bool { return t.acks[0] }

func (t *ackTransport) DeliverBatch(_, _ *Node, msgs []Message) []bool { return t.acks[:len(msgs)] }

// A publication's batch — up to multisendStack deliverables — sorts on the
// stack, hands its runs over in the node's slice and writes its recipients
// into the caller's: it allocates nothing. One deliverable more moves the sort
// to the heap, which shows the measurement sees it.
func TestMultisendOfAFewAllocatesNoScratch(t *testing.T) {
	net := buildNet(t, 64)
	tr := &ackTransport{}
	for i := range tr.acks {
		tr.acks[i] = true
	}
	net.SetTransport(tr)
	origin := net.Nodes()[0]
	batch := make([]Deliverable, multisendStack+1)
	for i := range batch {
		batch[i] = Deliverable{Target: id.Hash(string(rune('a' + i))), Msg: testMsg{kind: "k"}}
	}
	var recipients [multisendStack + 1]*Node
	for n, want := range map[int]float64{1: 0, multisendStack: 0, multisendStack + 1: 1} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := origin.Multisend(batch[:n], recipients[:0]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want {
			t.Errorf("Multisend of %d allocates %.0f times, want %.0f", n, allocs, want)
		}
	}
}

// A slice reused from one walk to the next says only the second walk's
// recipients: a deliverable whose delivery failed reads nil, not the node
// that took it the time before.
func TestMultisendClearsTheCallersRecipients(t *testing.T) {
	net := buildNet(t, 64)
	tr := &ackTransport{}
	net.SetTransport(tr)
	origin := net.Nodes()[0]
	batch := []Deliverable{{Target: id.Hash("a"), Msg: testMsg{kind: "k"}}}
	recipients := make([]*Node, 0, 1)

	tr.acks[0] = true
	got, _, err := origin.Multisend(batch, recipients)
	if err != nil || len(got) != 1 || got[0] == nil {
		t.Fatalf("acked walk: recipients %v, %v; want its owner", got, err)
	}
	if &got[0] != &recipients[:1][0] {
		t.Fatalf("the recipients were not written into the caller's slice")
	}
	tr.acks[0] = false
	got, _, err = origin.Multisend(batch, got)
	if err != nil || len(got) != 1 || got[0] != nil {
		t.Fatalf("unacked walk: recipients %v, %v; want [<nil>]", got, err)
	}
}

// ackingNet is a 64-node ring on transport tr, with the node its walks start
// from.
func ackingNet(t *testing.T, tr Transport) *Node {
	net := buildNet(t, 64)
	net.SetTransport(tr)
	return net.Nodes()[0]
}

// ownRun is k deliverables to n's own identifier: one run, handed to the
// transport at n before the walk takes a hop.
func ownRun(n *Node, kind string, k int) []Deliverable {
	batch := make([]Deliverable, k)
	for i := range batch {
		batch[i] = Deliverable{Target: n.ID(), Msg: testMsg{kind: kind, payload: i}}
	}
	return batch
}

func allAcks() *ackTransport {
	tr := &ackTransport{}
	for i := range tr.acks {
		tr.acks[i] = true
	}
	return tr
}

// nestingTransport walks again from origin inside its first DeliverBatch, as
// a handler sending from inside a delivery does, then checks that the run it
// was handed still says what it said.
type nestingTransport struct {
	*ackTransport
	t      *testing.T
	origin *Node
	nested bool
}

func (tr *nestingTransport) DeliverBatch(_, _ *Node, msgs []Message) []bool {
	if !tr.nested {
		tr.nested = true
		want := slices.Clone(msgs)
		if _, _, err := tr.origin.Multisend(ownRun(tr.origin, "inner", 2), nil); err != nil {
			tr.t.Fatal(err)
		}
		if !slices.Equal(msgs, want) {
			tr.t.Errorf("the nested walk wrote over the outer run: %v, want %v", msgs, want)
		}
	}
	return tr.acks[:len(msgs)]
}

// A walk nested in a delivery of its own node's walk finds the node's run
// slice taken and makes its own: the outer run is intact when the nested walk
// returns.
func TestMultisendNestedOnItsNodeKeepsItsOwnRun(t *testing.T) {
	tr := &nestingTransport{ackTransport: allAcks(), t: t}
	origin := ackingNet(t, tr)
	tr.origin = origin
	tr.nested = true // the first walk only leaves the node its slice
	if _, _, err := origin.Multisend(ownRun(origin, "warm", 3), nil); err != nil {
		t.Fatal(err)
	}
	tr.nested = false
	got, _, err := origin.Multisend(ownRun(origin, "outer", 3), nil)
	if err != nil || !tr.nested {
		t.Fatalf("outer walk: %v; nested walk ran: %v", err, tr.nested)
	}
	for i, r := range got {
		if r != origin {
			t.Errorf("outer deliverable %d went to %v, want %v", i, r, origin)
		}
	}
}

// oneWalkRuns checks that every run it is handed is one walk's, where each
// walk sends messages of its own kind, and acks none.
type oneWalkRuns struct{ t *testing.T }

func (oneWalkRuns) Deliver(_, _ *Node, _ Message) bool { return false }

func (tr oneWalkRuns) DeliverBatch(_, _ *Node, msgs []Message) []bool {
	kind := msgs[0].Kind()
	runtime.Gosched() // let another walk from the node run inside this one
	for i, m := range msgs {
		if m.Kind() != kind {
			tr.t.Errorf("a run of %s holds %s at %d", kind, m.Kind(), i)
		}
	}
	return make([]bool, len(msgs))
}

// Walks from one node at once each hand the transport runs of their own:
// only one of them holds the node's slice at a time.
func TestMultisendConcurrentWalksOnANodeKeepTheirRuns(t *testing.T) {
	origin := ackingNet(t, oneWalkRuns{t})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := ownRun(origin, fmt.Sprint("walk", g), 3)
			for i := 0; i < 100; i++ {
				if _, _, err := origin.Multisend(batch, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// The slice a node keeps between walks is emptied to its capacity: it holds
// no message of the walk before.
func TestMultisendKeepsNoMessageBetweenWalks(t *testing.T) {
	origin := ackingNet(t, allAcks())
	if _, _, err := origin.Multisend(ownRun(origin, "k", 5), nil); err != nil {
		t.Fatal(err)
	}
	run := origin.run
	if cap(run) == 0 || origin.runBusy.Load() {
		t.Fatalf("after a run of 5 the node keeps a slice of capacity %d, busy %v", cap(run), origin.runBusy.Load())
	}
	if len(run) != 0 {
		t.Errorf("the kept slice has length %d, want 0", len(run))
	}
	for i, m := range run[:cap(run)] {
		if m != nil {
			t.Errorf("the kept slice holds %v at %d", m, i)
		}
	}
}

// nackTransport refuses every delivery, however long the run.
type nackTransport struct{}

func (nackTransport) Deliver(_, _ *Node, _ Message) bool { return false }

func (nackTransport) DeliverBatch(_, _ *Node, msgs []Message) []bool { return make([]bool, len(msgs)) }

// A run longer than multisendKeep leaves the node no slice: one long walk does
// not pin its size on the node.
func TestMultisendKeepsNoSliceLongerThanItsKeep(t *testing.T) {
	origin := ackingNet(t, nackTransport{})
	if _, _, err := origin.Multisend(ownRun(origin, "k", 2), nil); err != nil {
		t.Fatal(err)
	}
	if cap(origin.run) == 0 {
		t.Fatal("the node kept no run slice after a run of 2")
	}
	if _, _, err := origin.Multisend(ownRun(origin, "k", multisendKeep+1), nil); err != nil {
		t.Fatal(err)
	}
	if c := cap(origin.run); c != 0 {
		t.Errorf("the node kept a slice of capacity %d after a run of %d, want none", c, multisendKeep+1)
	}
}

// The in-process transport answers a run whose every message landed with
// acks it shares, so a landed run of two or more allocates nothing; a refusal
// takes acks of its own and leaves the shared ones true.
func TestSimDeliverBatchOfALandedRunAllocatesNothing(t *testing.T) {
	net := buildNet(t, 8)
	from, dst := net.Nodes()[0], net.Nodes()[1]
	msgs := make([]Message, multisendKeep+1)
	for i := range msgs {
		msgs[i] = testMsg{kind: "k"}
	}
	tr := net.Transport()
	for _, n := range []int{2, 3, multisendKeep} {
		var acks []bool
		if allocs := testing.AllocsPerRun(100, func() { acks = tr.DeliverBatch(from, dst, msgs[:n]) }); allocs != 0 {
			t.Errorf("a landed run of %d allocates %.0f times, want 0", n, allocs)
		}
		if len(acks) != n || slices.Contains(acks, false) {
			t.Fatalf("a landed run of %d acks %v", n, acks)
		}
	}
	if acks := tr.DeliverBatch(from, dst, msgs); len(acks) != len(msgs) || slices.Contains(acks, false) {
		t.Fatalf("a landed run of %d acks %v", len(msgs), acks)
	}
	net.Fail(dst)
	if acks := tr.DeliverBatch(from, dst, msgs[:3]); !slices.Equal(acks, []bool{false, false, false}) {
		t.Fatalf("a run to a dead node acks %v", acks)
	}
	if slices.Contains(allLanded[:], false) {
		t.Fatal("a refused run wrote the shared acks")
	}
}
