package chaos

import (
	"fmt"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// A publisher remembers who took delivery of its al-index messages and sends
// the relation's next tuple straight there. When an attribute-level identifier
// changes hands and the old owner stays alive, a tuple it kept would meet no
// query: the node it lands on must say it is not the owner, and the run must
// deliver exactly what the centralized oracle derives.

// runPublisherChurn has every one of 64 nodes publish an R and an S tuple
// twice, which warms its table; changes who owns the eight attribute-level
// identifiers through change; then has every node publish both once more. It
// returns the hand-backs the run cost.
func runPublisherChurn(t *testing.T, prefix string, change func(eng *engine.Engine, als []id.ID)) int64 {
	t.Helper()
	r := relation.MustSchema(prefix+"R", "A", "B", "C", "D")
	s := relation.MustSchema(prefix+"S", "E", "F", "G", "H")
	catalog := relation.MustCatalog(r, s)
	net := chord.New(chord.Config{})
	net.AddNodes("peer", 64)
	eng := engine.New(net, catalog, engine.Config{Seed: 1, MaxRetries: 2})
	oracle := engine.NewOracle()
	for i, sql := range []string{
		fmt.Sprintf(`SELECT %[1]sR.C, %[1]sS.G FROM %[1]sR, %[1]sS WHERE %[1]sR.A = %[1]sS.E`, prefix),
		fmt.Sprintf(`SELECT %[1]sR.C, %[1]sS.G FROM %[1]sR, %[1]sS WHERE %[1]sR.B = %[1]sS.F`, prefix),
	} {
		q, err := eng.Subscribe(net.NodeByKey(fmt.Sprintf("peer%d", 60+i)), query.MustParse(catalog, sql))
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		oracle.AddQuery(q)
	}
	round := func(n int) {
		for i, node := range net.Nodes() {
			for _, schema := range []*relation.Schema{r, s} {
				// Keys recur across nodes and rounds and C and G name the
				// tuple, so one indexed where no query reads it is content the
				// oracle has and the run lacks.
				tu := relation.MustTuple(schema, relation.N(float64(i%8)), relation.N(float64(i%5)), relation.N(float64(4*i+n)), relation.N(0))
				stamped, err := eng.Publish(node, tu)
				if err != nil {
					t.Fatalf("publish: %v", err)
				}
				oracle.AddTuple(stamped)
			}
		}
	}
	round(1)
	round(2)
	var als []id.ID
	for _, schema := range []*relation.Schema{r, s} {
		for i := 0; i < schema.Arity(); i++ {
			als = append(als, id.Hash(schema.Name()+"+"+schema.Attr(i)))
		}
	}
	change(eng, als)
	round(3)
	if err := Complete(oracle, eng.Notifications()); err != nil {
		t.Error(err)
	}
	if err := NoDuplicateDeliveries(eng.Notifications()); err != nil {
		t.Error(err)
	}
	if lost := net.Traffic().TotalLost(); lost != 0 {
		t.Errorf("%d messages lost", lost)
	}
	return net.Handbacks()
}

func TestPublisherTableChurnDeliversWhatTheOracleDerives(t *testing.T) {
	// Joiner i lands just past identifier i mod 8, each round of eight nearer
	// to it than the last: every join takes an identifier from a live owner.
	joins := func(j int) func(*engine.Engine, []id.ID) {
		return func(eng *engine.Engine, als []id.ID) {
			for i := 0; i < j; i++ {
				n, err := eng.Network().JoinAt(fmt.Sprintf("joiner-%d", i), als[i%len(als)].AddPow2(uint(100-10*(i/len(als)))))
				if err != nil {
					t.Fatalf("join: %v", err)
				}
				eng.Attach(n)
			}
		}
	}
	// Eight peers, neither of them a subscriber, move exactly onto the
	// identifiers (Section 4.7.2); their own tables go with their old state.
	moves := func(eng *engine.Engine, als []id.ID) {
		for i, al := range als {
			if _, err := eng.MoveNode(eng.Network().NodeByKey(fmt.Sprintf("peer%d", i)), al); err != nil {
				t.Fatalf("move: %v", err)
			}
		}
	}
	for _, c := range []struct {
		name   string
		change func(*engine.Engine, []id.ID)
	}{{"joins-8", joins(8)}, {"joins-16", joins(16)}, {"joins-32", joins(32)}, {"moves-8", moves}} {
		for _, prefix := range []string{"", "x", "Rel"} {
			t.Run(c.name+"/"+prefix, func(t *testing.T) {
				if handbacks := runPublisherChurn(t, prefix, c.change); handbacks == 0 {
					t.Error("Handbacks = 0: no hinted send met a node that no longer owned its identifier")
				}
			})
		}
	}
}
