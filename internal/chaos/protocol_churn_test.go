package chaos

import (
	"sort"
	"strings"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/sim"
)

// Protocol-churn acceptance: membership changes — joins, voluntary leaves,
// crashes, rejoins — run through the maintenance protocol only
// (JoinProtocol/LeaveProtocol/FailProtocol + stabilize/notify/fix-fingers),
// never the oracle repairs, while the workload flows. After calming and
// healing, the ring must satisfy the Zave invariants, no delivery may be
// lost or duplicated, and the content-level notification fingerprint must
// equal a never-churned run of the same seeded workload.

// protocolFaults is the seeded churn schedule: every membership change is
// protocol-only.
func protocolFaults() Config {
	return Config{
		DropRate:       0.03,
		DupRate:        0.03,
		DelayRate:      0.03,
		MaxDelay:       3,
		CrashRate:      0.05,
		JoinRate:       0.10,
		LeaveRate:      0.08,
		RejoinAfter:    12,
		MinAlive:       16,
		StabilizeEvery: 2,
		ProtocolChurn:  true,
	}
}

// runProtocolChurn drives one seeded workload in batches of 4 publishes,
// stepping the injector between batches. churn=false runs the identical
// workload with no injector at all — the never-churned fingerprint oracle.
// Queries are subscribed up front at fixed base nodes so query keys (and
// therefore content fingerprints) are comparable across the two runs. With
// publishers > 0 only that many nodes, the first of the ring, publish: each
// publishes both relations over and over, so its memory of who took its
// al-index messages is warm whenever churn moves an owner.
func runProtocolChurn(t *testing.T, cfg engine.Config, seed int64, batches int, churn bool, publishers int) chaosResult {
	t.Helper()
	r := relation.MustSchema("R", "A", "B", "C")
	s := relation.MustSchema("S", "D", "E", "F")
	catalog := relation.MustCatalog(r, s)

	net := chord.New(chord.Config{})
	net.AddNodes("peer", 48)
	cfg.Seed, cfg.MaxRetries = seed, 6
	eng := engine.New(net, catalog, cfg)
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
	for b := 0; b < batches; b++ {
		for i := 0; i < 4; i++ {
			var tu *relation.Tuple
			if wl.Intn(2) == 0 {
				tu = relation.MustTuple(r,
					relation.N(float64(wl.Intn(5))), relation.N(float64(wl.Intn(3))), relation.N(float64(wl.Intn(3))))
			} else {
				tu = relation.MustTuple(s,
					relation.N(float64(wl.Intn(5))), relation.N(float64(wl.Intn(3))), relation.N(float64(wl.Intn(3))))
			}
			nodes := net.Nodes()
			from := wl.Intn(len(nodes))
			if publishers > 0 {
				from %= publishers
			}
			stamped, err := eng.Publish(nodes[from], tu)
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
	return chaosResult{trace: trace, notifs: eng.Notifications(), oracle: oracle, net: net}
}

// contentFingerprint is the sorted set of delivered content keys — the
// identity all four algorithms (and churned vs never-churned runs) must
// agree on.
func contentFingerprint(ns []engine.Notification) string {
	seen := make(map[string]bool, len(ns))
	keys := make([]string, 0, len(ns))
	for _, n := range ns {
		k := n.ContentKey()
		if !seen[k] {
			seen[k] = true
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return strings.Join(keys, "\n")
}

// traceHas reports whether any trace line contains the marker.
func traceHas(trace []string, marker string) bool {
	for _, line := range trace {
		if strings.Contains(line, marker) {
			return true
		}
	}
	return false
}

// TestProtocolChurnConvergence: for every algorithm, for SAI with join fingers
// that churn makes stale, and for SAI with four publishers whose remembered
// attribute-level owners a join's lagging predecessor pointer makes stale, a
// protocol-churned run must (a) converge to a ring satisfying all Zave
// invariants, (b) lose and duplicate nothing, and (c) reproduce the
// never-churned run's content fingerprint.
func TestProtocolChurnConvergence(t *testing.T) {
	seed := chaosSeed(t, 23)
	batches := 40
	if testing.Short() {
		// 28 is the fewest at which this seed's schedule has drawn every
		// event kind the vacuity check at the end demands; 20 never joined.
		batches = 28
	}
	for _, c := range []struct {
		cfg        engine.Config
		publishers int
	}{
		{cfg: engine.Config{Algorithm: engine.SAI}}, {cfg: engine.Config{Algorithm: engine.DAIQ}},
		{cfg: engine.Config{Algorithm: engine.DAIT}}, {cfg: engine.Config{Algorithm: engine.DAIV}},
		{cfg: engine.Config{Algorithm: engine.SAI, UseJFRT: true}},
		{cfg: engine.Config{Algorithm: engine.DAIQ}, publishers: 4},
	} {
		name := c.cfg.Algorithm.String()
		if c.cfg.UseJFRT {
			name += "+JFRT"
		}
		if c.publishers > 0 {
			name += "+warm"
		}
		t.Run(name, func(t *testing.T) {
			calm := runProtocolChurn(t, c.cfg, seed, batches, false, c.publishers)
			res := runProtocolChurn(t, c.cfg, seed, batches, true, c.publishers)

			// (a) Zave invariants and exact pointer convergence.
			if rep := chord.CheckRing(res.net); !rep.Converged() {
				t.Error(rep)
			}
			if err := RingIntact(res.net); err != nil {
				t.Error(err)
			}
			// (b) Differential invariants.
			if err := NoDuplicateDeliveries(res.notifs); err != nil {
				t.Error(err)
			}
			if err := Complete(res.oracle, res.notifs); err != nil {
				t.Error(err)
			}
			if c.publishers > 0 {
				// The workload's contents recur, so a tuple indexed where no
				// query reads it shows only in the pairs matched: DAI-Q
				// promises every one (PairComplete).
				if err := PairComplete(res.oracle, res.notifs); err != nil {
					t.Error(err)
				}
			}
			// (c) Fingerprint equals the never-churned oracle run.
			if got, want := contentFingerprint(res.notifs), contentFingerprint(calm.notifs); got != want {
				t.Errorf("content fingerprint diverges from never-churned run (%d vs %d distinct keys)",
					len(strings.Split(got, "\n")), len(strings.Split(want, "\n")))
			}

			// The run must actually have churned through the protocol paths.
			for _, marker := range []string{"join chaos-join-", "leave ", "crash ", "rejoin "} {
				if !traceHas(res.trace, marker) {
					t.Errorf("schedule never produced a %q event: test is vacuous", strings.TrimSpace(marker))
				}
			}
		})
	}
}

// TestProtocolChurnSeedsDiffer guards the membership schedule against
// silently ignoring its seed: distinct seeds must churn differently.
func TestProtocolChurnSeedsDiffer(t *testing.T) {
	a := runProtocolChurn(t, engine.Config{Algorithm: engine.SAI}, 5, 25, true, 0)
	b := runProtocolChurn(t, engine.Config{Algorithm: engine.SAI}, 6, 25, true, 0)
	if strings.Join(a.trace, "\n") == strings.Join(b.trace, "\n") {
		t.Fatalf("seeds 5 and 6 produced identical %d-event churn traces", len(a.trace))
	}
}
