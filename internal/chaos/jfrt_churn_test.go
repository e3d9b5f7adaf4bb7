package chaos

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// A join finger names the evaluator of an identifier (Section 4.7.1). When
// the identifier changes hands and the old owner stays alive — a join splits
// its arc, a load-balancing move takes part of it — a rewriter that keeps
// sending there stores its rewrites where no tuple will ever arrive. With
// the JFRT on, a run must deliver exactly what it delivers with the JFRT off.

// runJFRTChurn publishes 40 R and 40 S tuples that join pairwise under
// R.A = S.D, which warms the rewriter's join fingers; changes ownership
// through change; then publishes 40 more R tuples, one per stored S tuple.
// It returns the sorted content keys delivered: 80 when nothing is lost.
func runJFRTChurn(t *testing.T, jfrt bool, prefix string, change func(*engine.Engine, []string)) []string {
	t.Helper()
	r := relation.MustSchema("R", "A", "B", "C")
	s := relation.MustSchema("S", "D", "E", "F")
	catalog := relation.MustCatalog(r, s)
	net := chord.New(chord.Config{})
	net.AddNodes("peer", 64)
	eng := engine.New(net, catalog, engine.Config{Strategy: engine.StrategyLeft, UseJFRT: jfrt, Seed: 1})
	if _, err := eng.Subscribe(net.Nodes()[0], query.MustParse(catalog, `SELECT R.B, S.E FROM R, S WHERE R.A = S.D`)); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	publish := func(i int, schema *relation.Schema, key string, b float64) {
		nodes := net.Nodes()
		if _, err := eng.Publish(nodes[i%len(nodes)], relation.MustTuple(schema, relation.S(key), relation.N(b), relation.N(0))); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	keys := make([]string, 40)
	for i := range keys {
		keys[i] = fmt.Sprintf("%s%d", prefix, i)
		publish(i, r, keys[i], float64(i))
		publish(i+7, s, keys[i], float64(i))
	}
	change(eng, keys)
	for i, key := range keys {
		publish(i+13, r, key, float64(100+i))
	}
	got := eng.DeliveredContentKeys()
	sort.Strings(got)
	return got
}

func TestJFRTChurnDeliversWhatNoJFRTDelivers(t *testing.T) {
	joins := func(j int) func(*engine.Engine, []string) {
		return func(eng *engine.Engine, _ []string) {
			for i := 0; i < j; i++ {
				n, err := eng.Network().Join(fmt.Sprintf("joiner-%d", i))
				if err != nil {
					t.Fatalf("join: %v", err)
				}
				eng.Attach(n)
			}
		}
	}
	// Eight peers move onto evaluator identifiers in use (Section 4.7.2) —
	// none of them the rewriter, whose fingers would go with its old state.
	moves := func(eng *engine.Engine, keys []string) {
		net := eng.Network()
		rewriter, _, err := net.Nodes()[0].Lookup(id.Hash("R+A"))
		if err != nil {
			t.Fatalf("lookup: %v", err)
		}
		for i, moved := 0, 0; moved < 8; i++ {
			n := net.NodeByKey(fmt.Sprintf("peer%d", i))
			if n == rewriter {
				continue
			}
			if _, err := eng.MoveNode(n, id.Hash("S+D+"+keys[5*moved])); err != nil {
				t.Fatalf("move: %v", err)
			}
			moved++
		}
	}
	for _, c := range []struct {
		name   string
		change func(*engine.Engine, []string)
	}{{"joins-8", joins(8)}, {"joins-16", joins(16)}, {"joins-32", joins(32)}, {"moves-8", moves}} {
		for _, prefix := range []string{"k", "key-", "v"} {
			t.Run(c.name+"/"+prefix, func(t *testing.T) {
				want := runJFRTChurn(t, false, prefix, c.change)
				if len(want) != 80 {
					t.Fatalf("with the JFRT off %d notifications were delivered, want 80", len(want))
				}
				if got := runJFRTChurn(t, true, prefix, c.change); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Fatalf("with the JFRT on %d of %d notifications were delivered", len(got), len(want))
				}
			})
		}
	}
}
