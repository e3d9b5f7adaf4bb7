package chord

import (
	"testing"

	"cqjoin/internal/id"
)

// ackTransport acks every delivery from one array and runs no handler, so a
// walk's allocations are Multisend's own.
type ackTransport struct{ acks [16]bool }

func (t *ackTransport) Deliver(_, _ *Node, _ Message) bool { return true }

func (t *ackTransport) DeliverBatch(_, _ *Node, msgs []Message) []bool { return t.acks[:len(msgs)] }

// A publication's batch — up to multisendStack deliverables — sorts on the
// stack and hands its runs over in a recycled slice: the one allocation left
// is the recipient list it returns. One deliverable more moves the sort to the
// heap, which shows the measurement sees it.
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
	for n, want := range map[int]float64{1: 1, multisendStack: 1, multisendStack + 1: 2} {
		allocs := testing.AllocsPerRun(100, func() {
			if _, _, err := origin.Multisend(batch[:n]); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want {
			t.Errorf("Multisend of %d allocates %.0f times, want %.0f", n, allocs, want)
		}
	}
}
