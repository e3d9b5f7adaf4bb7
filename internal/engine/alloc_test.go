package engine

import (
	"testing"

	"cqjoin/internal/relation"
)

// publicationAllocCeiling bounds the allocations of one SAI publication in
// TestPublicationAllocCeiling's stream: 67 measured when the compiled plan
// and the once-per-tuple keys landed (198 before), plus 15 %. A
// Tuple.Project per triggered query or a content key per evaluator costs
// more than the margin, a NeededAttrs/SideAttrs walk per call most of it;
// together they cannot hide. Routing
// allocates nothing, so ring size and placement do not move the figure; a
// Go release that moves it is a reason to re-measure, not to add slack.
const publicationAllocCeiling = 77

func TestPublicationAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	env := newTestEnv(t, 64, Config{Algorithm: SAI, Strategy: StrategyLeft, Seed: 1})
	for i := 0; i < 4; i++ {
		env.subscribe(t, i, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	}
	// Alternate R and S tuples joining pairwise on a fresh key: every R
	// stores the group's four rewrites, every S fires them.
	const runs = 400
	stream := make([]*relation.Tuple, 0, runs+101)
	for i := 0; len(stream) < cap(stream); i++ {
		stream = append(stream, rTuple(env, float64(i), float64(1000+i), 1), sTuple(env, float64(i), float64(1000+i), 2))
	}
	next := 0
	publish := func() {
		if _, err := env.eng.Publish(env.node(next), stream[next]); err != nil {
			t.Fatal(err)
		}
		next++
	}
	for next < 100 { // warm the identifier cache and the tables' first buckets
		publish()
	}
	before := env.eng.NotificationCount()
	perPub := testing.AllocsPerRun(runs, publish)
	if got := env.eng.NotificationCount() - before; got != 4*((runs+1)/2) {
		t.Fatalf("%d notifications over the measured stream, want %d", got, 4*((runs+1)/2))
	}
	t.Logf("%.0f allocations per publication (ceiling %d)", perPub, publicationAllocCeiling)
	if perPub > publicationAllocCeiling {
		t.Fatalf("%.0f allocations per publication, ceiling %d: see publicationAllocCeiling", perPub, publicationAllocCeiling)
	}
}
