package chaos

import (
	"strings"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/sim"
)

// Hot-key sharding under protocol churn: a skewed workload promotes a
// value-level input to a replica group while nodes join, leave, crash and
// rejoin through the maintenance protocol. The promoted epoch state — the
// shard registry, the scattered rewrite copies, the relayed tuples — must
// survive the churn: after calming and healing, the run must lose and
// duplicate nothing and reproduce the never-churned fingerprint.

// runHotKeyChurn mirrors runProtocolChurn with two changes: the engine
// runs with hot-key sharding armed, and the workload is skewed — half of
// all draws pin the join attribute (R.B / S.E) to the hot value 7, so one
// value-level input per side concentrates enough traffic to cross the
// promotion threshold mid-run, within the detector's 64-unit window.
// Delivery reordering under churn may move the arrival that promotes, and
// promotion only moves work, so the delivered content cannot depend on it.
func runHotKeyChurn(t *testing.T, seed int64, batches int, churn bool) (chaosResult, []engine.HotKeyState) {
	t.Helper()
	r := relation.MustSchema("R", "A", "B", "C")
	s := relation.MustSchema("S", "D", "E", "F")
	catalog := relation.MustCatalog(r, s)

	net := chord.New(chord.Config{})
	net.AddNodes("peer", 48)
	eng := engine.New(net, catalog, engine.Config{
		Algorithm:       engine.SAI,
		Seed:            seed,
		MaxRetries:      6,
		HotKeyThreshold: 8,
		HotKeyReplicas:  4,
	})
	var in *Injector
	if churn {
		faults := protocolFaults()
		faults.Seed = seed
		in = New(eng, faults)
	}
	oracle := engine.NewOracle()
	wl := sim.NewSource(seed + 1)

	base := net.Nodes()
	for qi, qs := range chaosQueries {
		q, err := eng.Subscribe(base[(qi*7)%len(base)], query.MustParse(catalog, qs))
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		oracle.AddQuery(q)
	}
	// Skewed join-attribute draw: value 7 on half the draws, a uniform
	// cold value otherwise.
	joinVal := func() float64 {
		if wl.Intn(2) == 0 {
			return 7
		}
		return float64(wl.Intn(3))
	}
	for b := 0; b < batches; b++ {
		for i := 0; i < 4; i++ {
			var tu *relation.Tuple
			if wl.Intn(2) == 0 {
				tu = relation.MustTuple(r,
					relation.N(float64(wl.Intn(5))), relation.N(joinVal()), relation.N(float64(wl.Intn(3))))
			} else {
				tu = relation.MustTuple(s,
					relation.N(float64(wl.Intn(5))), relation.N(joinVal()), relation.N(float64(wl.Intn(3))))
			}
			nodes := net.Nodes()
			stamped, err := eng.Publish(nodes[wl.Intn(len(nodes))], tu)
			if err != nil {
				t.Fatalf("batch %d: %v", b, err)
			}
			oracle.AddTuple(stamped)
		}
		if in != nil {
			in.Step()
		}
	}
	var trace []string
	if in != nil {
		in.Calm()
		if rounds, err := in.HealAll(80); err != nil {
			t.Fatalf("overlay did not converge after %d rounds: %v", rounds, err)
		}
		trace = in.Trace()
	}
	return chaosResult{trace: trace, notifs: eng.Notifications(), oracle: oracle, net: net}, eng.HotKeys()
}

// TestHotKeyChurnConvergence: with a key promoted mid-run, a
// protocol-churned run must converge to a Zave-invariant ring, lose and
// duplicate nothing, and reproduce the never-churned run's content
// fingerprint.
func TestHotKeyChurnConvergence(t *testing.T) {
	seed := chaosSeed(t, 31)
	batches := 40
	if testing.Short() {
		batches = 20
	}
	calm, calmHot := runHotKeyChurn(t, seed, batches, false)
	res, hot := runHotKeyChurn(t, seed, batches, true)

	// Non-vacuity: the skew must actually promote the hot value, with and
	// without churn.
	for name, hot := range map[string][]engine.HotKeyState{"calm": calmHot, "churned": hot} {
		promoted := false
		for _, h := range hot {
			if strings.HasSuffix(h.Input, "+7") && h.Replicas == 4 {
				promoted = true
			}
		}
		if !promoted {
			t.Fatalf("%s: skewed stream never promoted the hot value: %v", name, hot)
		}
	}

	if rep := chord.CheckRing(res.net); !rep.Converged() {
		t.Error(rep)
	}
	if err := RingIntact(res.net); err != nil {
		t.Error(err)
	}
	if err := NoDuplicateDeliveries(res.notifs); err != nil {
		t.Error(err)
	}
	if err := Complete(res.oracle, res.notifs); err != nil {
		t.Error(err)
	}
	if got, want := contentFingerprint(res.notifs), contentFingerprint(calm.notifs); got != want {
		t.Errorf("content fingerprint diverges from never-churned run (%d vs %d distinct keys)",
			len(strings.Split(got, "\n")), len(strings.Split(want, "\n")))
	}

	// The schedule must actually have churned while the key was hot.
	for _, marker := range []string{"join chaos-join-", "leave ", "crash ", "rejoin "} {
		if !traceHas(res.trace, marker) {
			t.Errorf("schedule never produced a %q event: test is vacuous", strings.TrimSpace(marker))
		}
	}
}
