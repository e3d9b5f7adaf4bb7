package daemon

import (
	"net"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// joinerConfig copies a running overlay's configuration for a fresh
// joining process, the way `cqjoind -join` does.
func joinerConfig(t *testing.T, seedProc *overlayProc, ln net.Listener) Config {
	t.Helper()
	oc := seedProc.c.call(map[string]interface{}{"op": "overlay-config"})
	if oc["ok"] != true {
		t.Fatalf("overlay-config: %v", oc)
	}
	var peers []string
	for _, p := range oc["peers"].([]interface{}) {
		peers = append(peers, p.(string))
	}
	return Config{
		Nodes:        int(oc["nodes"].(float64)),
		Algorithm:    oc["algorithm"].(string),
		SchemaDSL:    oc["schema"].(string),
		UseJFRT:      oc["jfrt"].(bool),
		Seed:         int64(oc["seed"].(float64)),
		OverlayAddr:  ln.Addr().String(),
		Peers:        peers,
		JoinExisting: true,
	}
}

// TestDaemonConcurrentJoiners is the end-to-end regression test for the
// membership arbitration fix: two processes join a running overlay in the
// same instant through different seed members, producing two views with
// the same version. Under "strictly newer version wins" whichever view a
// process saw first stuck and the overlay split permanently. The total
// order on (version, originator hash) plus the losing seed's reissue must
// admit both joiners, converge every process to the identical view, and
// leave a single linear version history on each process.
func TestDaemonConcurrentJoiners(t *testing.T) {
	procs := startOverlayProcs(t, defaultConfig(), 2)
	a, b := procs[0], procs[1]

	lnC, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen overlay C: %v", err)
	}
	lnD, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen overlay D: %v", err)
	}
	c := startOverlayProc(t, joinerConfig(t, a, lnC), lnC)
	d := startOverlayProc(t, joinerConfig(t, b, lnD), lnD)

	// Join in the same instant through *different* seed processes.
	var wg sync.WaitGroup
	var errC, errD error
	wg.Add(2)
	go func() { defer wg.Done(); errC = c.srv.JoinOverlay(a.addr) }()
	go func() { defer wg.Done(); errD = d.srv.JoinOverlay(b.addr) }()
	wg.Wait()
	if errC != nil || errD != nil {
		t.Fatalf("concurrent joins failed: C=%v D=%v", errC, errD)
	}
	procs = append(procs, c, d)

	// Every process converged on one identical view admitting both joiners.
	// All gossip (including reissues) is synchronous inside JoinOverlay and
	// the inbound view handlers it awaits, so by now the overlay is quiet.
	want := a.srv.members.view()
	if len(want.Procs) != 4 {
		t.Fatalf("final view is missing a joiner: %+v", want)
	}
	if want.Version != 3 {
		t.Fatalf("final version = %d, want 3 (boot v1 + winning admission + one follow-up)", want.Version)
	}
	for _, p := range procs {
		if got := p.srv.members.view(); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s diverged: %+v, want %+v", p.addr, got, want)
		}
	}

	// Single linear version history on every process: each adopted stamp
	// strictly succeeds the previous one under the total order, and all
	// processes end on the same stamp.
	for _, p := range procs {
		p.srv.members.mu.Lock()
		stamps := slices.Clone(p.srv.members.history)
		p.srv.members.mu.Unlock()
		for i := 1; i < len(stamps); i++ {
			prev, cur := stamps[i-1], stamps[i]
			if !viewAfter(cur.version, cur.origin, prev.version, prev.origin) {
				t.Fatalf("%s history not linear: %+v then %+v", p.addr, prev, cur)
			}
		}
		if last := stamps[len(stamps)-1]; last.version != want.Version || last.origin != want.Origin {
			t.Fatalf("%s ended on %+v, want (%d, %s)", p.addr, last, want.Version, want.Origin)
		}
	}

	// The converged overlay still evaluates queries end to end.
	var subProc *overlayProc
	for _, p := range procs {
		for i := 0; i < p.srv.Cluster().Size(); i++ {
			if p.ownsNode(i) {
				subProc = p
				if resp := p.c.call(map[string]interface{}{
					"op": "subscribe", "node": i,
					"sql": `SELECT O.Customer, S.Depot FROM Orders AS O, Shipments AS S WHERE O.Product = S.Product`,
				}); resp["ok"] != true {
					t.Fatalf("subscribe: %v", resp)
				}
				break
			}
		}
		if subProc != nil {
			break
		}
	}
	publishPair(t, procs, "post-race")
	total := 0
	for _, p := range procs {
		total += p.srv.Cluster().NotificationCount()
	}
	if total != 1 {
		t.Fatalf("published 1 matching pair, delivered %d notifications", total)
	}
}
