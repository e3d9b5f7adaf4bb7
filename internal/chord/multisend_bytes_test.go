package chord

import (
	"math/rand"
	"slices"
	"testing"

	"cqjoin/internal/id"
)

// frameBytes is what one leg moves: the frame of the messages aboard, in
// clockwise order — the head in full, every other behind the one before it —
// with each message's bytes booked under its kind.
func frameBytes(aboard []Deliverable, byKind map[string]int64) {
	var prev Message
	for _, d := range aboard {
		size, _ := sizeSized(d.Msg, prev)
		byKind[d.Msg.Kind()] += int64(size)
		prev = d.Msg
	}
}

// Multisend prices a walk in closed form at delivery time; the definition it
// must equal is the sum, over every leg the batch makes, of the frame aboard
// on that leg. This replays each walk leg by leg beside the real one, over
// batches that mix shared groups, loners and kinds, from one to twelve
// messages, and compares the ledgers per kind.
func TestMultisendChargesEachLegItsFrame(t *testing.T) {
	net := New(Config{})
	net.SetSizer(sizeSized)
	nodes := net.AddNodes("leg", 256)
	rng := rand.New(rand.NewSource(5))
	kinds := []string{"k0", "k1", "k2"}
	want := map[string]int64{}
	for round := 0; round < 400; round++ {
		origin := nodes[rng.Intn(len(nodes))]
		batch := make([]Deliverable, 1+rng.Intn(12))
		for i := range batch {
			var target id.ID
			rng.Read(target[:])
			if rng.Intn(4) == 0 && i > 0 {
				target = batch[i-1].Target // a run: two messages for one node
			}
			shared := 20 + rng.Intn(40)
			batch[i] = Deliverable{Target: target, Msg: sizedMsg{
				kind: kinds[rng.Intn(len(kinds))], size: shared + 1 + rng.Intn(30), shared: shared, group: rng.Intn(3),
			}}
		}
		aboard := slices.Clone(batch)
		slices.SortStableFunc(aboard, func(a, b Deliverable) int {
			return id.Distance(origin.ID(), a.Target).Cmp(id.Distance(origin.ID(), b.Target))
		})
		legs := 0
		for cur := origin; ; legs++ {
			for len(aboard) > 0 && cur.OwnsKey(aboard[0].Target) {
				aboard = aboard[1:]
			}
			if len(aboard) == 0 {
				break
			}
			frameBytes(aboard, want)
			cur, _ = cur.nextHop(aboard[0].Target) // a static ring: a final hop lands on the owner
		}
		if _, hops, err := origin.Multisend(batch, nil); err != nil || hops != legs {
			t.Fatalf("round %d: multisend made %d hops (%v), the replay %d", round, hops, err, legs)
		}
	}
	var total int64
	for _, kind := range kinds {
		if got := net.Traffic().Bytes(kind); got != want[kind] || got == 0 {
			t.Errorf("kind %s: charged %d bytes, the legs' frames hold %d", kind, got, want[kind])
		}
		total += want[kind]
	}
	if got := net.Traffic().TotalBytes(); got != total {
		t.Errorf("charged %d bytes in all, the legs' frames hold %d", got, total)
	}
}
