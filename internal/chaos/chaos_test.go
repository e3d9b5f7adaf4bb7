package chaos

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/sim"
)

// The acceptance harness: drive a seeded workload over a network whose
// deliveries drop, duplicate and lag, while nodes crash and rejoin, then
// calm the injector, heal the overlay, and require the three invariants —
// ring integrity, no duplicate deliveries, and exact agreement with the
// centralized oracle — for all four algorithms. A failing seed is
// reproduced with CHAOS_SEED=<n> go test ./internal/chaos/.

// chaosSeed returns the run seed, overridable via the CHAOS_SEED
// environment variable for replaying a reported failure.
func chaosSeed(t *testing.T, fallback int64) int64 {
	t.Helper()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED=%q: %v", s, err)
		}
		t.Logf("seed overridden: CHAOS_SEED=%d", v)
		return v
	}
	return fallback
}

// chaosResult captures everything a run produced that reproducibility and
// the invariants are checked against.
type chaosResult struct {
	trace  []string
	notifs []engine.Notification
	oracle *engine.Oracle
	net    *chord.Network
}

var chaosQueries = []string{
	`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`,
	`SELECT R.B, S.E FROM R, S WHERE R.A = S.D`,
	`SELECT R.A FROM R, S WHERE 2 * R.B = S.E + 1`,
	`SELECT S.D FROM R, S WHERE R.B = S.E AND R.C = 2`,
	`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`, // duplicate condition: grouping path
}

// runChaos executes one seeded fault-injected workload and returns its
// artifacts. The workload randomness and the fault randomness come from
// separate sources so the event schedule is identical across algorithms.
func runChaos(t *testing.T, alg engine.Algorithm, seed int64, faults Config, events int) chaosResult {
	t.Helper()
	r := relation.MustSchema("R", "A", "B", "C")
	s := relation.MustSchema("S", "D", "E", "F")
	catalog := relation.MustCatalog(r, s)

	net := chord.New(chord.Config{})
	net.AddNodes("peer", 48)
	eng := engine.New(net, catalog, engine.Config{
		Algorithm:  alg,
		Seed:       seed,
		MaxRetries: 6,
	})
	faults.Seed = seed
	in := New(eng, faults)
	oracle := engine.NewOracle()
	wl := sim.NewSource(seed + 1)

	alive := func() *chord.Node {
		nodes := net.Nodes()
		return nodes[wl.Intn(len(nodes))]
	}
	nextQuery := 0
	for step := 0; step < events; step++ {
		switch {
		case nextQuery < len(chaosQueries) && (step%8 == 0 || wl.Intn(6) == 0):
			q, err := eng.Subscribe(alive(), query.MustParse(catalog, chaosQueries[nextQuery]))
			if err != nil {
				t.Fatalf("subscribe: %v", err)
			}
			oracle.AddQuery(q)
			nextQuery++
		case wl.Intn(2) == 0:
			tu, err := eng.Publish(alive(), relation.MustTuple(r,
				relation.N(float64(wl.Intn(5))), relation.N(float64(wl.Intn(3))), relation.N(float64(wl.Intn(3)))))
			if err != nil {
				t.Fatalf("publish R: %v", err)
			}
			oracle.AddTuple(tu)
		default:
			tu, err := eng.Publish(alive(), relation.MustTuple(s,
				relation.N(float64(wl.Intn(5))), relation.N(float64(wl.Intn(3))), relation.N(float64(wl.Intn(3)))))
			if err != nil {
				t.Fatalf("publish S: %v", err)
			}
			oracle.AddTuple(tu)
		}
		in.Step()
	}
	in.Calm()
	if rounds, err := in.HealAll(60); err != nil {
		t.Fatalf("overlay did not converge after %d rounds: %v", rounds, err)
	}
	return chaosResult{trace: in.Trace(), notifs: eng.Notifications(), oracle: oracle, net: net}
}

// acceptanceFaults is the ISSUE.md acceptance configuration: 5% drops, 5%
// duplications, delays, and a 10% per-event crash/rejoin schedule.
func acceptanceFaults() Config {
	return Config{
		DropRate:       0.05,
		DupRate:        0.05,
		DelayRate:      0.05,
		MaxDelay:       4,
		CrashRate:      0.10,
		RejoinAfter:    15,
		StaleIPRate:    0.05,
		MinAlive:       16,
		StabilizeEvery: 4,
	}
}

func TestChaosInvariantsAllAlgorithms(t *testing.T) {
	seed := chaosSeed(t, 42)
	events := 120
	if testing.Short() {
		events = 60
	}
	for _, alg := range []engine.Algorithm{engine.SAI, engine.DAIQ, engine.DAIT, engine.DAIV} {
		t.Run(alg.String(), func(t *testing.T) {
			res := runChaos(t, alg, seed, acceptanceFaults(), events)
			if err := RingIntact(res.net); err != nil {
				t.Errorf("%v", err)
			}
			if err := NoDuplicateDeliveries(res.notifs); err != nil {
				t.Errorf("%v", err)
			}
			if err := Complete(res.oracle, res.notifs); err != nil {
				t.Errorf("%v", err)
			}
			if alg == engine.DAIQ || alg == engine.DAIV {
				if err := PairComplete(res.oracle, res.notifs); err != nil {
					t.Errorf("%v", err)
				}
			}
			if len(res.trace) == 0 {
				t.Errorf("no fault events injected: test is vacuous")
			}
		})
	}
}

// The reproducibility contract: one seed determines the whole run — the
// fault-event trace AND the delivered notifications, in order.
func TestChaosTraceReproducible(t *testing.T) {
	seed := chaosSeed(t, 7)
	a := runChaos(t, engine.SAI, seed, acceptanceFaults(), 80)
	b := runChaos(t, engine.SAI, seed, acceptanceFaults(), 80)
	if len(a.trace) != len(b.trace) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a.trace), len(b.trace))
	}
	for i := range a.trace {
		if a.trace[i] != b.trace[i] {
			t.Fatalf("traces diverge at event %d:\n  run1: %s\n  run2: %s", i, a.trace[i], b.trace[i])
		}
	}
	if len(a.notifs) != len(b.notifs) {
		t.Fatalf("notification counts differ: %d vs %d", len(a.notifs), len(b.notifs))
	}
	for i := range a.notifs {
		ka, kb := deliveryIdentity(a.notifs[i]), deliveryIdentity(b.notifs[i])
		if ka != kb {
			t.Fatalf("delivery order diverges at %d: %s vs %s", i, ka, kb)
		}
	}
	if len(a.trace) == 0 {
		t.Fatal("no fault events injected: test is vacuous")
	}
}

// Distinct seeds must produce distinct fault schedules — a guard against
// the injector silently ignoring its seed.
func TestChaosSeedsDiffer(t *testing.T) {
	a := runChaos(t, engine.SAI, 1, acceptanceFaults(), 60)
	b := runChaos(t, engine.SAI, 2, acceptanceFaults(), 60)
	same := len(a.trace) == len(b.trace)
	if same {
		for i := range a.trace {
			if a.trace[i] != b.trace[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatalf("seeds 1 and 2 produced identical %d-event traces", len(a.trace))
	}
}

// Each fault class alone must also be survivable — narrower configurations
// localize a regression faster than the full acceptance mix.
func TestChaosSingleFaultClasses(t *testing.T) {
	if testing.Short() {
		t.Skip("long matrix")
	}
	cases := []struct {
		name   string
		faults Config
	}{
		{"drops", Config{DropRate: 0.15}},
		{"dups", Config{DupRate: 0.20}},
		{"delays", Config{DelayRate: 0.20, MaxDelay: 6}},
		{"churn", Config{CrashRate: 0.15, RejoinAfter: 12, MinAlive: 16, StabilizeEvery: 3}},
		{"stale-ip", Config{StaleIPRate: 0.25}},
	}
	seed := chaosSeed(t, 11)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := runChaos(t, engine.SAI, seed, tc.faults, 80)
			if err := NoDuplicateDeliveries(res.notifs); err != nil {
				t.Errorf("%v", err)
			}
			if err := Complete(res.oracle, res.notifs); err != nil {
				t.Errorf("%v", err)
			}
		})
	}
}

// A calm injector must be invisible: zero rates, no Steps, and the run must
// match a run without any interceptor, message for message.
func TestChaosZeroConfigIsTransparent(t *testing.T) {
	run := func(install bool) (map[string]int64, []engine.Notification) {
		r := relation.MustSchema("R", "A", "B", "C")
		s := relation.MustSchema("S", "D", "E", "F")
		catalog := relation.MustCatalog(r, s)
		net := chord.New(chord.Config{})
		net.AddNodes("peer", 32)
		eng := engine.New(net, catalog, engine.Config{Algorithm: engine.SAI})
		if install {
			New(eng, Config{})
		}
		if _, err := eng.Subscribe(net.Nodes()[0], query.MustParse(catalog, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10; i++ {
			if _, err := eng.Publish(net.Nodes()[i], relation.MustTuple(r, relation.N(float64(i)), relation.N(1), relation.N(0))); err != nil {
				t.Fatal(err)
			}
			if _, err := eng.Publish(net.Nodes()[i+1], relation.MustTuple(s, relation.N(float64(i)), relation.N(1), relation.N(0))); err != nil {
				t.Fatal(err)
			}
		}
		msgs, hops := net.Traffic().Snapshot()
		counts := make(map[string]int64)
		for kind, v := range msgs {
			counts[kind] = v
		}
		for kind, v := range hops {
			counts[kind+"/hops"] = v
		}
		return counts, eng.Notifications()
	}
	base, baseN := run(false)
	with, withN := run(true)
	if len(baseN) != len(withN) {
		t.Fatalf("notification counts differ: %d vs %d", len(baseN), len(withN))
	}
	if fmt.Sprint(base) != fmt.Sprint(with) {
		t.Fatalf("traffic ledgers differ:\nwithout: %v\nwith:    %v", base, with)
	}
}
