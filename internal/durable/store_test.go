package durable

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cqjoin/internal/chaos"
	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
	"cqjoin/internal/workload"
)

// The kill -9 acceptance test (ISSUE 10): a scripted workload is run to
// completion on one engine (the oracle) and re-run against a store that
// is abandoned mid-stream — the byte-for-byte state a kill -9 leaves —
// then recovered into a freshly built engine that finishes the remaining
// ops. The delivered notification fingerprint must be identical, with
// fault injection off and on.

// Op kinds of the scripted workload.
const (
	opSubscribe = iota
	opUnsubscribe
	opPublish
)

type scriptOp struct {
	kind   int
	node   string // originating node key
	text   string // query SQL for subscribe ops
	subRef int    // opUnsubscribe: script index of the subscribe to retract
	tuple  *relation.Tuple
}

const (
	scriptNodes      = 48
	scriptSubscribes = 36
	scriptStream     = 140
)

// buildScript pregenerates a deterministic workload so the oracle run and
// the crash-recovery run execute identical operation streams: a subscribe
// phase (two-way queries and 3-way chains), then a publish stream with
// bursts, chain tuples, and a couple of mid-stream retractions.
func buildScript(seed int64) (*workload.Generator, []scriptOp) {
	gen := workload.New(workload.Params{Seed: seed})
	rng := rand.New(rand.NewSource(seed + 7))
	node := func() string { return fmt.Sprintf("peer%d", rng.Intn(scriptNodes)) }
	var script []scriptOp
	for i := 0; i < scriptSubscribes; i++ {
		if i%6 == 5 {
			script = append(script, scriptOp{kind: opSubscribe, node: node(), text: gen.QueryChain(3).Text()})
		} else {
			script = append(script, scriptOp{kind: opSubscribe, node: node(), text: gen.Query().Text()})
		}
	}
	for i := 0; i < scriptStream; i++ {
		switch {
		case i == 50: // retract a two-way query (replayed from the WAL after crash 1)
			script = append(script, scriptOp{kind: opUnsubscribe, node: script[4].node, subRef: 4})
		case i == 95: // retract a chain
			script = append(script, scriptOp{kind: opUnsubscribe, node: script[11].node, subRef: 11})
		case i%10 == 7:
			for j := 0; j < 10; j++ {
				script = append(script, scriptOp{kind: opPublish, node: node(), tuple: gen.Tuple()})
			}
		case i%10 == 3:
			script = append(script, scriptOp{kind: opPublish, node: node(), tuple: gen.ChainTuple(3)})
		default:
			script = append(script, scriptOp{kind: opPublish, node: node(), tuple: gen.Tuple()})
		}
	}
	return gen, script
}

// chaosConfig is the fault mix of the crash-recovery runs. Per-delivery
// faults are keyed by message content and attempt, so a recovery replay
// re-experiences the original run's fault schedule.
func chaosConfig(seed int64) chaos.Config {
	return chaos.Config{
		Seed:      seed,
		DropRate:  0.03,
		DupRate:   0.03,
		DelayRate: 0.05,
		MaxDelay:  4,
	}
}

// runScript executes the script against a store under dir. At every index
// in restartAt the engine is torn down — Abandon (kill -9) or Close
// (graceful) — and rebuilt from the state dir before the stream resumes.
// Every engine hands its notifications to consumer (nil: it records them). It
// returns the sorted content fingerprint of the record, the total WAL records
// replayed across restarts, the last restart's RecoveryInfo and the final
// NotificationCount.
func runScript(t *testing.T, catalog *relation.Catalog, script []scriptOp, dir string,
	withChaos bool, seed int64, restartAt map[int]bool, clean bool, consumer func(engine.Notification)) ([]string, int, RecoveryInfo, int) {
	t.Helper()
	build := func() (*engine.Engine, *chaos.Injector, *Store) {
		net := chord.New(chord.Config{})
		net.AddNodes("peer", scriptNodes)
		eng := engine.New(net, catalog, engine.Config{MaxRetries: 3, Seed: seed})
		eng.OnNotify(consumer)
		var in *chaos.Injector
		if withChaos {
			in = chaos.New(eng, chaosConfig(seed))
		}
		st, err := Open(dir, catalog, Options{SnapshotEvery: 24})
		if err != nil {
			t.Fatalf("open store: %v", err)
		}
		return eng, in, st
	}
	eng, in, st := build()
	var lastInfo RecoveryInfo
	if _, err := st.Recover(eng); err != nil {
		t.Fatalf("initial recover: %v", err)
	}
	replayed := 0
	subs := make(map[int]*query.Query) // script index -> identified query
	for i, op := range script {
		from := eng.Network().NodeByKey(op.node)
		var err error
		switch op.kind {
		case opSubscribe:
			q, perr := query.Parse(catalog, op.text)
			if perr != nil {
				t.Fatalf("op %d: parse %q: %v", i, op.text, perr)
			}
			var res *query.Query
			if res, err = st.Subscribe(from, q); err == nil {
				subs[i] = res
			}
		case opUnsubscribe:
			q := subs[op.subRef]
			if q == nil {
				t.Fatalf("op %d: no subscription recorded at script index %d", i, op.subRef)
			}
			err = st.Unsubscribe(from, q)
		case opPublish:
			_, err = st.Publish(from, op.tuple)
		}
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if in != nil && i%16 == 15 {
			in.Step()
		}
		if restartAt[i] {
			if clean {
				if err := st.Close(); err != nil {
					t.Fatalf("close at op %d: %v", i, err)
				}
			} else {
				st.Abandon()
			}
			eng, in, st = build()
			info, err := st.Recover(eng)
			if err != nil {
				t.Fatalf("recover at op %d: %v", i, err)
			}
			replayed += info.Replayed
			lastInfo = info
		}
	}
	if in != nil {
		in.Calm()
	}
	if err := st.Close(); err != nil {
		t.Fatalf("final close: %v", err)
	}
	keys := eng.DeliveredContentKeys()
	sort.Strings(keys)
	return keys, replayed, lastInfo, eng.NotificationCount()
}

// TestCrashRecoveryFingerprint is the proof obligation of ISSUE 10: an
// engine killed without warning mid-workload and restarted from its state
// dir must deliver exactly the notification multiset of a never-crashed
// run — the publication-time divergence of replayed tuples is absorbed by
// the timestamp-free content keys, and the restored dedup record prevents
// any double delivery of snapshot-absorbed matches.
func TestCrashRecoveryFingerprint(t *testing.T) {
	const seed = 41
	gen, script := buildScript(seed)
	catalog := gen.Catalog()
	// Two kill -9s mid-stream: right after the first retraction, and inside
	// a later burst.
	crashAt := map[int]bool{131: true, 255: true}
	if script[131].kind != opUnsubscribe {
		t.Fatalf("script op 131 is kind %d, want the first unsubscribe", script[131].kind)
	}
	for _, withChaos := range []bool{false, true} {
		t.Run(fmt.Sprintf("chaos=%v", withChaos), func(t *testing.T) {
			oracle, _, _, count := runScript(t, catalog, script, t.TempDir(), withChaos, seed, nil, false, nil)
			if len(oracle) == 0 || count != len(oracle) {
				t.Fatalf("oracle recorded %d notifications and counted %d; the script exercises nothing", len(oracle), count)
			}
			crashed, replayed, _, count := runScript(t, catalog, script, t.TempDir(), withChaos, seed, crashAt, false, nil)
			if replayed == 0 {
				t.Fatal("recovery replayed no WAL records; the crash points exercise nothing")
			}
			if !reflect.DeepEqual(oracle, crashed) || count != len(oracle) {
				t.Errorf("fingerprints diverge: oracle %d notifications, crashed-and-recovered %d, counted %d",
					len(oracle), len(crashed), count)
				for _, d := range diffKeys(oracle, crashed) {
					t.Log(d)
				}
			}

			// Under a consumer — a daemon's engine — nothing is recorded: what
			// survives the kills is the count, each snapshot's plus its replayed
			// tail's, and the identities dedupe runs on (re-delivered against in
			// engine.TestSnapshotCarriesDeliveredIdentities).
			crashed, replayed, _, count = runScript(t, catalog, script, t.TempDir(), withChaos, seed, crashAt, false, func(engine.Notification) {})
			if replayed == 0 || len(crashed) != 0 || count != len(oracle) {
				t.Errorf("under a consumer the crashed run replayed %d records, recorded %d notifications and counted %d; the oracle delivered %d",
					replayed, len(crashed), count, len(oracle))
			}
		})
	}
}

// TestCleanShutdownRestart covers the graceful path: Close checkpoints,
// so a restart recovers everything from the snapshot with an empty WAL.
func TestCleanShutdownRestart(t *testing.T) {
	const seed = 43
	gen, script := buildScript(seed)
	catalog := gen.Catalog()
	oracle, _, _, _ := runScript(t, catalog, script, t.TempDir(), false, seed, nil, false, nil)
	restartAt := map[int]bool{154: true}
	restarted, replayed, info, _ := runScript(t, catalog, script, t.TempDir(), false, seed, restartAt, true, nil)
	if replayed != 0 {
		t.Errorf("clean restart replayed %d WAL records, want 0 (Close checkpoints)", replayed)
	}
	if info.SnapshotLSN == 0 {
		t.Error("clean restart recovered no snapshot")
	}
	if !reflect.DeepEqual(oracle, restarted) {
		t.Errorf("fingerprints diverge: oracle %d notifications, restarted %d", len(oracle), len(restarted))
		for _, d := range diffKeys(oracle, restarted) {
			t.Log(d)
		}
	}
}

// TestViewAndDownRoundTrip covers the daemon-facing membership records:
// logged views replay, and the snapshot carries the Options-supplied view
// and down list back to RecoveryInfo.
func TestViewAndDownRoundTrip(t *testing.T) {
	catalog := workload.New(workload.Params{Seed: 1}).Catalog()
	dir := t.TempDir()
	buildEngine := func() *engine.Engine {
		net := chord.New(chord.Config{})
		net.AddNodes("peer", 8)
		return engine.New(net, catalog, engine.Config{Seed: 1})
	}

	st, err := Open(dir, catalog, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := st.Recover(buildEngine()); err != nil {
		t.Fatalf("recover: %v", err)
	}
	if err := st.LogView(&wire.MemberView{Version: 3, Procs: []string{"a:1", "b:2"}}); err != nil {
		t.Fatalf("log view: %v", err)
	}
	if err := st.LogView(&wire.MemberView{Version: 4, Procs: []string{"a:1", "b:2", "c:3"}}); err != nil {
		t.Fatalf("log view: %v", err)
	}
	st.Abandon()

	// Replay path: the later logged view wins.
	st, err = Open(dir, catalog, Options{
		View: func() *wire.MemberView { return &wire.MemberView{Version: 4, Procs: []string{"a:1", "b:2", "c:3"}} },
		Down: func() []string { return []string{"peer3"} },
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	info, err := st.Recover(buildEngine())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.View == nil || info.View.Version != 4 || len(info.View.Procs) != 3 {
		t.Fatalf("replayed view = %+v, want version 4 with 3 procs", info.View)
	}

	// Snapshot path: Checkpoint persists the Options-supplied view and
	// down list, and a restart reports them without replaying records.
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	st.Abandon()
	st, err = Open(dir, catalog, Options{})
	if err != nil {
		t.Fatalf("reopen after checkpoint: %v", err)
	}
	info, err = st.Recover(buildEngine())
	if err != nil {
		t.Fatalf("recover after checkpoint: %v", err)
	}
	if info.Replayed != 0 {
		t.Errorf("replayed %d records after checkpoint, want 0", info.Replayed)
	}
	if info.View == nil || info.View.Version != 4 {
		t.Errorf("snapshot view = %+v, want version 4", info.View)
	}
	if !reflect.DeepEqual(info.Down, []string{"peer3"}) {
		t.Errorf("snapshot down list = %v, want [peer3]", info.Down)
	}
	st.Abandon()
}

// diffKeys reports the asymmetric difference of two sorted key multisets,
// truncated to keep failure output readable.
func diffKeys(want, got []string) []string {
	count := func(keys []string) map[string]int {
		m := make(map[string]int)
		for _, k := range keys {
			m[k]++
		}
		return m
	}
	w, g := count(want), count(got)
	var out []string
	for k, n := range w {
		if g[k] < n {
			out = append(out, fmt.Sprintf("missing after recovery (%dx): %s", n-g[k], k))
		}
	}
	for k, n := range g {
		if w[k] < n {
			out = append(out, fmt.Sprintf("extra after recovery (%dx): %s", n-w[k], k))
		}
	}
	sort.Strings(out)
	if len(out) > 12 {
		out = append(out[:12], fmt.Sprintf("... and %d more", len(out)-12))
	}
	return out
}
