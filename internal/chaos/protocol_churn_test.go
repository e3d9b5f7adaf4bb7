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
// never the oracle repairs, while the workload flows through the batched
// parallel publish pipeline. After calming and healing, the ring must
// satisfy the Zave invariants, no delivery may be lost or duplicated, and
// the content-level notification fingerprint must equal a never-churned
// run of the same seeded workload — at any worker count.

// protocolFaults is the seeded churn schedule: every membership change is
// protocol-only, and per-delivery fates are keyed draws so the schedule is
// identical at any parallelism.
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
		KeyedDraws:     true,
	}
}

// runProtocolChurn drives one seeded workload in batches of 4 publishes
// through PublishBatch at the given worker count, stepping the injector
// between batches. churn=false runs the identical workload with no
// injector at all — the never-churned fingerprint oracle. Queries are
// subscribed up front at fixed base nodes so query keys (and therefore
// content fingerprints) are comparable across the two runs.
func runProtocolChurn(t *testing.T, alg engine.Algorithm, seed int64, batches, workers int, churn bool) chaosResult {
	t.Helper()
	r := relation.MustSchema("R", "A", "B", "C")
	s := relation.MustSchema("S", "D", "E", "F")
	catalog := relation.MustCatalog(r, s)

	net := chord.New(chord.Config{})
	net.AddNodes("peer", 48)
	eng := engine.New(net, catalog, engine.Config{
		Algorithm:    alg,
		Seed:         seed,
		MaxRetries:   6,
		RetryBackoff: 1,
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
	for b := 0; b < batches; b++ {
		const batchLen = 4
		stamp := net.Clock().Now()
		ops := make([]engine.PublishOp, 0, batchLen)
		for i := 0; i < batchLen; i++ {
			var tu *relation.Tuple
			if wl.Intn(2) == 0 {
				tu = relation.MustTuple(r,
					relation.N(float64(wl.Intn(5))), relation.N(float64(wl.Intn(3))), relation.N(float64(wl.Intn(3))))
			} else {
				tu = relation.MustTuple(s,
					relation.N(float64(wl.Intn(5))), relation.N(float64(wl.Intn(3))), relation.N(float64(wl.Intn(3))))
			}
			nodes := net.Nodes()
			ops = append(ops, engine.PublishOp{From: nodes[wl.Intn(len(nodes))], T: tu})
			// PublishBatch pre-stamps event i with now+i+1; mirror that for
			// the differential oracle.
			oracle.AddTuple(tu.WithPubT(stamp + int64(i) + 1))
		}
		if err := eng.PublishBatch(ops, workers); err != nil {
			t.Fatalf("batch %d: %v", b, err)
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

// TestProtocolChurnConvergence: for every algorithm, a protocol-churned
// run at parallelism 1 and at parallelism 8 must (a) be bit-identical to
// each other — same fault trace, same delivery sequence — (b) converge to
// a ring satisfying all Zave invariants, (c) lose and duplicate nothing,
// and (d) reproduce the never-churned run's content fingerprint.
func TestProtocolChurnConvergence(t *testing.T) {
	seed := chaosSeed(t, 23)
	batches := 40
	if testing.Short() {
		// 28 is the fewest at which this seed's schedule has drawn every
		// event kind the vacuity check at the end demands; 20 never joined.
		batches = 28
	}
	for _, alg := range []engine.Algorithm{engine.SAI, engine.DAIQ, engine.DAIT, engine.DAIV} {
		t.Run(alg.String(), func(t *testing.T) {
			calm := runProtocolChurn(t, alg, seed, batches, 8, false)
			seq := runProtocolChurn(t, alg, seed, batches, 1, true)
			par := runProtocolChurn(t, alg, seed, batches, 8, true)

			// (a) Worker count must not change the run: the same fault
			// events (keyed draws make each delivery's fate a function of
			// its content, though workers may log them in a different
			// order within a batch) and the same delivery sequence
			// (PublishBatch keeps the sink canonically sorted).
			sortedTrace := func(trace []string) []string {
				out := append([]string(nil), trace...)
				sort.Strings(out)
				return out
			}
			ts, tp := sortedTrace(seq.trace), sortedTrace(par.trace)
			if len(ts) != len(tp) {
				t.Fatalf("trace lengths differ across parallelism: %d vs %d", len(ts), len(tp))
			}
			for i := range ts {
				if ts[i] != tp[i] {
					t.Fatalf("fault-event multisets diverge at %d:\n  w1: %s\n  w8: %s", i, ts[i], tp[i])
				}
			}
			// Deliveries must agree as a multiset of full identities.
			// (The sequence is canonical within each publish batch, but a
			// replayed offline queue preserves its arrival order, which a
			// different worker interleaving may permute.)
			ids := func(ns []engine.Notification) []string {
				out := make([]string, len(ns))
				for i, n := range ns {
					out[i] = deliveryIdentity(n)
				}
				sort.Strings(out)
				return out
			}
			is, ip := ids(seq.notifs), ids(par.notifs)
			if len(is) != len(ip) {
				t.Fatalf("notification counts differ across parallelism: %d vs %d", len(is), len(ip))
			}
			for i := range is {
				if is[i] != ip[i] {
					t.Fatalf("delivery sets diverge at %d: %s vs %s", i, is[i], ip[i])
				}
			}

			for name, res := range map[string]chaosResult{"w1": seq, "w8": par} {
				// (b) Zave invariants and exact pointer convergence.
				if rep := chord.CheckRing(res.net); !rep.Converged() {
					t.Errorf("%s: %s", name, rep)
				}
				if err := RingIntact(res.net); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				// (c) Differential invariants.
				if err := NoDuplicateDeliveries(res.notifs); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if err := Complete(res.oracle, res.notifs); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				// (d) Fingerprint equals the never-churned oracle run.
				if got, want := contentFingerprint(res.notifs), contentFingerprint(calm.notifs); got != want {
					t.Errorf("%s: content fingerprint diverges from never-churned run (%d vs %d distinct keys)",
						name, len(strings.Split(got, "\n")), len(strings.Split(want, "\n")))
				}
			}

			// The run must actually have churned through the protocol paths.
			for _, marker := range []string{"join chaos-join-", "leave ", "crash ", "rejoin "} {
				if !traceHas(par.trace, marker) {
					t.Errorf("schedule never produced a %q event: test is vacuous", strings.TrimSpace(marker))
				}
			}
		})
	}
}

// TestProtocolChurnSeedsDiffer guards the membership schedule against
// silently ignoring its seed: distinct seeds must churn differently.
func TestProtocolChurnSeedsDiffer(t *testing.T) {
	a := runProtocolChurn(t, engine.SAI, 5, 25, 8, true)
	b := runProtocolChurn(t, engine.SAI, 6, 25, 8, true)
	if strings.Join(a.trace, "\n") == strings.Join(b.trace, "\n") {
		t.Fatalf("seeds 5 and 6 produced identical %d-event churn traces", len(a.trace))
	}
}
