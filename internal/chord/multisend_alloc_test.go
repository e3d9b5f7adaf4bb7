package chord

import (
	"testing"

	"cqjoin/internal/id"
)

// ackTransport answers every delivery from one array — a lone one with its
// first ack — and runs no handler, so a walk's allocations are Multisend's own.
type ackTransport struct{ acks [16]bool }

func (t *ackTransport) Deliver(_, _ *Node, _ Message) bool { return t.acks[0] }

func (t *ackTransport) DeliverBatch(_, _ *Node, msgs []Message) []bool { return t.acks[:len(msgs)] }

// A publication's batch — up to multisendStack deliverables — sorts on the
// stack, hands its runs over in a recycled slice and writes its recipients
// into the caller's: it allocates nothing. One deliverable more moves the sort
// to the heap, which shows the measurement sees it.
func TestMultisendOfAFewAllocatesNoScratch(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
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
