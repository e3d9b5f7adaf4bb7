package exp

import (
	"math/rand"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
)

// multisendProbe is a minimal message for the Figure 4.8 experiment.
type multisendProbe struct{}

func (multisendProbe) Kind() string { return "ms-probe" }

// fig48 regenerates Figure 4.8: recursive vs. iterative design for the
// multisend function. For growing destination counts k, one node sends a
// batch of messages to k random identifiers with both designs; the figure
// reports total overlay hops per batch. The recursive walk shares the
// routing path across destinations, so its advantage grows with k.
func fig48(sc Scale) [][]string {
	rng := rand.New(rand.NewSource(sc.Seed))
	net := chord.New(chord.Config{})
	net.AddNodes("peer", sc.Nodes)
	src := net.Nodes()[0]

	var rows [][]string
	for _, k := range []int{1, 4, 16, 64, 256} {
		const trials = 10
		var iterTotal, recTotal int
		for trial := 0; trial < trials; trial++ {
			batch := make([]chord.Deliverable, k)
			for i := range batch {
				var target id.ID
				rng.Read(target[:])
				batch[i] = chord.Deliverable{Target: target, Msg: multisendProbe{}}
			}
			_, h, err := src.MultisendIterative(batch)
			if err != nil {
				panic(err)
			}
			iterTotal += h
			_, h, err = src.Multisend(batch, nil)
			if err != nil {
				panic(err)
			}
			recTotal += h
		}
		iter := float64(iterTotal) / trials
		rec := float64(recTotal) / trials
		ratio := 0.0
		if rec > 0 {
			ratio = iter / rec
		}
		rows = append(rows, []string{d(sc.Nodes), d(k), f1(iter), f1(rec), f2(ratio)})
	}
	return rows
}
