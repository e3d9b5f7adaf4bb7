package daemon

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cqjoin/internal/id"
)

// daemonLosses is every loss across processes known today, by cell, with what
// the cell loses; TestDaemonLosses holds the overlay to exactly this list, so
// a fix deletes its row and anything lost anew fails. The cells, each two
// processes over loopback:
//   - AT: 16 queries subscribe at the seed and a matching pair is published
//     through its joiner, whose clock is far behind the seed's; the count is
//     the queries not notified.
//   - AU: two matches of one query, published through the two processes at
//     equal time pairs, project to the number 1 and the string "1"; the count
//     is the matches never notified. It reads 0: a delivered identity says
//     each value's kind, where its text said both as 1 and took the second
//     for a duplicate.
//   - AV(a): a seed is killed and restarted after its joiner took some of its
//     queries over and subscribed one of its own, and pairs went through the
//     seed; its replay runs what its joiner delivered as its own, and the
//     count is the restarts after which the seed knows notifications it did
//     not know before the kill.
//   - AV(b): a process whose view no longer gives it a node refuses a
//     publication's delivery to it; the loss is booked (stats' lost), not
//     delivered, and the count is the publications booked.
var daemonLosses = map[string]int{
	"AT":    15,
	"AV(a)": 1,
	"AV(b)": 1,
}

// The cross-process losses the overlay has are exactly daemonLosses.
func TestDaemonLosses(t *testing.T) {
	cells := map[string]func(t *testing.T) int{
		"AT":    lossAT,
		"AU":    lossAU,
		"AV(a)": lossAVa,
		"AV(b)": lossAVb,
	}
	got := make(map[string]int)
	for name, cell := range cells {
		t.Run(name, func(t *testing.T) {
			if n := cell(t); n != 0 {
				got[name] = n
			}
		})
	}
	if !reflect.DeepEqual(got, daemonLosses) {
		t.Fatalf("the overlay loses %v, daemonLosses lists %v", got, daemonLosses)
	}
}

// notifiedOf counts the queries of keys that srvs know as notified of the
// pair publishPair published under tag.
func notifiedOf(t *testing.T, keys []string, tag string, srvs ...*Server) int {
	t.Helper()
	values := fmt.Sprint([]string{"cust-" + tag, "depot-" + tag})
	n := 0
	for _, s := range srvs {
		for ev := range knownDelivered(t, s) {
			for _, k := range keys {
				if ev.query == k && ev.values == values {
					n++
				}
			}
		}
	}
	return n
}

func lossAT(t *testing.T) int {
	a, b, _, _, keys := seedAndJoiner(t, "")
	if len(keys) != 16 {
		t.Fatalf("%d queries subscribed at the seed, want 16", len(keys))
	}
	publishPair(t, []*overlayProc{b}, "via-joiner")
	return len(keys) - notifiedOf(t, keys, "via-joiner", a.srv, b.srv)
}

func lossAU(t *testing.T) int {
	procs := startOverlayProcs(t, defaultConfig(), 2)
	a, b := procs[0], procs[1]
	if resp := a.c.call(map[string]interface{}{"op": "listen"}); resp["ok"] != true {
		t.Fatalf("listen: %v", resp)
	}
	key := subscribeDaemon(t, a.c, a.nodeOwnedBy(t))
	clockA, clockB := a.srv.Cluster().Overlay().Clock(), b.srv.Cluster().Overlay().Clock()
	if lag := clockA.Now() - clockB.Now(); lag >= 0 {
		clockB.Advance(lag)
	} else {
		clockA.Advance(-lag)
	}
	for _, p := range []struct {
		proc     *overlayProc
		customer interface{}
		product  string
	}{{a, 1, "prod-a"}, {b, "1", "prod-b"}} {
		node := p.proc.nodeOwnedBy(t)
		for _, op := range []map[string]interface{}{
			{"op": "publish", "node": node, "relation": "Orders", "values": []interface{}{1, p.customer, p.product}},
			{"op": "publish", "node": node, "relation": "Shipments", "values": []interface{}{2, p.product, "depot"}},
		} {
			if resp := p.proc.c.call(op); resp["ok"] != true {
				t.Fatalf("publish through %s: %v", p.proc.addr, resp)
			}
		}
	}
	if resp := a.c.call(map[string]interface{}{"op": "stats"}); resp["ok"] != true {
		t.Fatalf("stats: %v", resp)
	}
	// Each value said with its type and its length, so 1 and "1" differ.
	seen := make(map[string]bool)
	for _, ev := range a.c.events {
		if ev["query"] != key {
			continue
		}
		var k strings.Builder
		for _, v := range ev["values"].([]interface{}) {
			s := fmt.Sprint(v)
			fmt.Fprintf(&k, "%T:%d:%s|", v, len(s), s)
		}
		seen[k.String()] = true
	}
	return 2 - len(seen)
}

func lossAVa(t *testing.T) int {
	a, b, cfgA, _, _ := seedAndJoiner(t, "")
	subscribeDaemon(t, b.c, b.nodeOwnedBy(t))
	publishPair(t, []*overlayProc{a}, "joiner-query")
	before := knownDelivered(t, a.srv)
	kill(a)
	restarted := startOverlayProc(t, cfgA, nil)
	after, atB := knownDelivered(t, restarted.srv), knownDelivered(t, b.srv)
	gained, twice := 0, 0
	for ev := range after {
		if !before[ev] {
			gained++
			if atB[ev] {
				twice++
			}
		}
	}
	// How many turns on which nodes the joiner's address took, and on which
	// earlier pairs the joiner's query, stamped by a clock far behind, matched:
	// the cell counts the restart.
	t.Logf("the restarted seed knows %d notifications it did not before the kill, %d of them known at its joiner", gained, twice)
	if gained > 0 {
		return 1
	}
	return 0
}

func lossAVb(t *testing.T) int {
	procs := startOverlayProcs(t, defaultConfig(), 2)
	rewriter := procs[0].srv.Cluster().Overlay().OracleSuccessor(id.Hash("Orders+Product"))
	x, p := procs[0], procs[1]
	if !x.srv.owns(rewriter) {
		x, p = p, x
	}
	x.srv.members.mu.Lock()
	x.srv.members.install(x.srv.members.version+1, p.addr, []string{p.addr})
	x.srv.members.mu.Unlock()
	if resp := p.c.call(map[string]interface{}{
		"op": "publish", "node": p.nodeOwnedBy(t), "relation": "Orders", "values": []interface{}{1, "acme", "widget"},
	}); resp["ok"] != true {
		t.Fatalf("publish through %s: %v", p.addr, resp)
	}
	// How many of the publication's messages x refused turns on which
	// attributes' rewriters its address took: the cell counts the publication.
	if lost, _ := p.c.call(map[string]interface{}{"op": "stats"})["lost"].(float64); lost > 0 {
		return 1
	}
	return 0
}
