package durable

import (
	"strings"
	"testing"

	"cqjoin/internal/chaos"
	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/sim"
)

// The hand-off crash tests (ISSUE 10): ownership movement and process
// crashes compose. TransferKeys/ExportHandoff strips a node's movable
// state into an in-flight message that is deliberately NOT logged — the
// WAL records intents (subscribes, publishes), not derived placement — so
// a process that dies mid-transfer resurrects the full pre-export state
// on recovery, and the orphaned in-flight copy must then be absorbed by
// the keyed merges when the transport's retry finally lands it.

// TestExportHandoffCrashRecovery crashes a process between ExportHandoff
// and delivery: the recovered engine must still hold the exported buckets
// (nothing dropped), and the stale hand-off copies arriving afterwards
// must merge idempotently (nothing double-delivered, evaluation undoubled).
func TestExportHandoffCrashRecovery(t *testing.T) {
	r := relation.MustSchema("R", "A", "B", "C")
	s := relation.MustSchema("S", "D", "E", "F")
	catalog := relation.MustCatalog(r, s)
	dir := t.TempDir()
	build := func() *engine.Engine {
		net := chord.New(chord.Config{})
		net.AddNodes("peer", 16)
		return engine.New(net, catalog, engine.Config{Seed: 5, MaxRetries: 3})
	}

	eng := build()
	st, err := Open(dir, catalog, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := st.Recover(eng); err != nil {
		t.Fatalf("recover: %v", err)
	}
	node := func(e *engine.Engine, key string) *chord.Node {
		n := e.Network().NodeByKey(key)
		if n == nil {
			t.Fatalf("no node %s", key)
		}
		return n
	}
	if _, err := st.Subscribe(node(eng, "peer0"),
		query.MustParse(catalog, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)); err != nil {
		t.Fatalf("subscribe: %v", err)
	}
	pub := func(store *Store, e *engine.Engine, key string, tu *relation.Tuple) {
		t.Helper()
		if _, err := store.Publish(node(e, key), tu); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	for i := 0; i < 4; i++ {
		pub(st, eng, "peer1", relation.MustTuple(r, relation.N(float64(i)), relation.N(1), relation.N(0)))
		pub(st, eng, "peer9", relation.MustTuple(s, relation.N(float64(10+i)), relation.N(1), relation.N(0)))
	}
	delivered := len(eng.Notifications())
	if delivered == 0 {
		t.Fatal("workload delivered nothing; the hand-off would be empty")
	}

	// Mid-TransferKeys: every node's movable state is stripped into
	// in-flight hand-off messages, and the process dies before any of them
	// is delivered — or logged.
	type flight struct {
		key string
		msg chord.Message
	}
	var inflight []flight
	for _, n := range eng.Network().Nodes() {
		if msg, ok := eng.ExportHandoff(n); ok {
			inflight = append(inflight, flight{key: n.Key(), msg: msg})
		}
	}
	if len(inflight) == 0 {
		t.Fatal("no node had movable state; the crash point exercises nothing")
	}
	st.Abandon()

	// Recovery resurrects the pre-export state: the in-flight buckets were
	// never logged as gone, so nothing the transfer had in the air is lost.
	eng2 := build()
	st2, err := Open(dir, catalog, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	info, err := st2.Recover(eng2)
	if err != nil {
		t.Fatalf("recover after crash: %v", err)
	}
	t.Cleanup(st2.Abandon)
	if info.Replayed == 0 && info.SnapshotLSN == 0 {
		t.Fatalf("nothing recovered: %+v", info)
	}
	if got := len(eng2.Notifications()); got != delivered {
		t.Fatalf("recovered %d notifications, delivered %d before the crash", got, delivered)
	}

	// The orphaned transfer lands anyway — the old owner's transport retry
	// delivering into the recovered process. The keyed merges must absorb
	// every section against the resurrected state.
	for _, f := range inflight {
		if !eng2.Network().DeliverLocal(f.key, f.msg) {
			t.Fatalf("stale hand-off to %s not deliverable", f.key)
		}
	}
	if got := len(eng2.Notifications()); got != delivered {
		t.Fatalf("stale hand-off replay changed deliveries: %d, want %d", got, delivered)
	}

	// Evaluation continues undoubled: one fresh matching pair, exactly one
	// new notification — duplicated stored tuples would join twice here.
	pub(st2, eng2, "peer3", relation.MustTuple(r, relation.N(99), relation.N(2), relation.N(0)))
	pub(st2, eng2, "peer7", relation.MustTuple(s, relation.N(98), relation.N(2), relation.N(0)))
	if got := len(eng2.Notifications()); got != delivered+1 {
		t.Fatalf("fresh pair after stale merge delivered %d new notifications, want 1", got-delivered)
	}
	if err := chaos.NoDuplicateDeliveries(eng2.Notifications()); err != nil {
		t.Error(err)
	}
}

// TestChurnRestartHandoff composes node churn with whole-process
// crash/restarts: the chaos schedule crashes and departs nodes (moving
// their keys through hand-off) while RestartEvery kills the hosting
// process mid-stream; each incarnation recovers from the state dir and the
// injector rebinds onto it, carrying the fault schedule across. After
// calming and healing, the delivered set must match the centralized
// oracle exactly — nothing the churn or the crashes had in flight was
// dropped, and nothing was delivered twice.
func TestChurnRestartHandoff(t *testing.T) {
	const seed = 47
	r := relation.MustSchema("R", "A", "B", "C")
	s := relation.MustSchema("S", "D", "E", "F")
	catalog := relation.MustCatalog(r, s)
	dir := t.TempDir()

	build := func() *engine.Engine {
		net := chord.New(chord.Config{})
		net.AddNodes("peer", 48)
		return engine.New(net, catalog, engine.Config{Seed: seed, MaxRetries: 6})
	}
	eng := build()
	in := chaos.New(eng, chaos.Config{
		Seed:           seed,
		DropRate:       0.03,
		DupRate:        0.03,
		DelayRate:      0.04,
		MaxDelay:       3,
		CrashRate:      0.10,
		LeaveRate:      0.05,
		RejoinAfter:    12,
		MinAlive:       16,
		StabilizeEvery: 4,
		RestartEvery:   24,
	})
	openStore := func() *Store {
		st, err := Open(dir, catalog, Options{SnapshotEvery: 24, Down: in.Downed})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		return st
	}
	st := openStore()
	if _, err := st.Recover(eng); err != nil {
		t.Fatalf("initial recover: %v", err)
	}

	oracle := engine.NewOracle()
	wl := sim.NewSource(seed + 1)
	alive := func() *chord.Node {
		nodes := eng.Network().Nodes()
		return nodes[wl.Intn(len(nodes))]
	}
	queries := []string{
		`SELECT R.A, S.D FROM R, S WHERE R.B = S.E`,
		`SELECT R.B, S.E FROM R, S WHERE R.A = S.D`,
		`SELECT S.D FROM R, S WHERE R.B = S.E AND R.C = 2`,
	}
	nextQuery := 0
	restarts := 0
	for step := 0; step < 120; step++ {
		switch {
		case nextQuery < len(queries) && (step%8 == 0 || wl.Intn(6) == 0):
			q, err := st.Subscribe(alive(), query.MustParse(catalog, queries[nextQuery]))
			if err != nil {
				t.Fatalf("subscribe: %v", err)
			}
			oracle.AddQuery(q)
			nextQuery++
		case wl.Intn(2) == 0:
			tu, err := st.Publish(alive(), relation.MustTuple(r,
				relation.N(float64(wl.Intn(5))), relation.N(float64(wl.Intn(3))), relation.N(float64(wl.Intn(3)))))
			if err != nil {
				t.Fatalf("publish R: %v", err)
			}
			oracle.AddTuple(tu)
		default:
			tu, err := st.Publish(alive(), relation.MustTuple(s,
				relation.N(float64(wl.Intn(5))), relation.N(float64(wl.Intn(3))), relation.N(float64(wl.Intn(3)))))
			if err != nil {
				t.Fatalf("publish S: %v", err)
			}
			oracle.AddTuple(tu)
		}
		in.Step()
		if in.TakeRestart() {
			restarts++
			st.Abandon() // kill -9: parked deliveries and the WAL descriptor die
			eng = build()
			st = openStore()
			info, err := st.Recover(eng)
			if err != nil {
				t.Fatalf("recover at step %d: %v", step, err)
			}
			in.Rebind(eng, info.Down)
		}
	}
	if restarts == 0 {
		t.Fatal("no process restarts fired; the schedule exercises nothing")
	}
	in.Calm()
	if rounds, err := in.HealAll(60); err != nil {
		t.Fatalf("overlay did not converge after %d rounds: %v", rounds, err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}

	notifs := eng.Notifications()
	if err := chaos.RingIntact(eng.Network()); err != nil {
		t.Error(err)
	}
	if err := chaos.NoDuplicateDeliveries(notifs); err != nil {
		t.Error(err)
	}
	if err := chaos.Complete(oracle, notifs); err != nil {
		t.Error(err)
	}
	trace := strings.Join(in.Trace(), "\n")
	if !strings.Contains(trace, "proc-restart") || !strings.Contains(trace, "rebind") {
		t.Errorf("trace records no process restarts:\n%s", trace)
	}
}
