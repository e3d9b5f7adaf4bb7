package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// A state directory an earlier build wrote must still recover. The files
// under each of parentStateDirs were written by parentStateScript running at
// an earlier commit: state-pr18 at 9d67740 (PR 18), the last build whose
// snapshots list join conditions; state-pr19 at 79a77e6 (PR 19), the last to
// write every tuple with its attribute names, every number in eight bytes and
// every stored rewrite in full; state-pr20 at 4559085 (PR 20), the last whose
// snapshot meta ends with the hot-key counters and has no count of its own;
// state-pr25 at eda9bcf (PR 25), the last whose publishers indexed every tuple
// at the value level themselves, so that no rewriter held an interest mark:
// recovery re-derives the marks from the restored ALQTs (RecoveryInfo.
// DerivedMarks), or the standing queries would starve on fresh tuples;
// state-pr32 at b13ae9e (PR 32), the last whose hand-off sections end with the
// marks and the retraction memory, no rewriter having told a publisher that
// nothing reads an attribute — and, byte for byte, what PR 34 wrote: the last
// whose queries say a subscriber their key names, and whose stored rewrites
// say what their evaluator derives; state-pr36 at 802dac1, the last whose
// snapshots say every query's SQL text, not its token form, and whose
// directory records no catalog digest; state-pr38 at d97b968, the first whose
// queries say their token form and the last whose stored notifications say
// their key in full, their address and their delivery time — and, byte for
// byte, what 3d63375 wrote: the last whose value-level sections say their
// input, which recovery hashes, not their identifier; state-pr58 at 7c5f42a,
// the last whose snapshot meta says each standing query's key and inputs but
// not the query, so that the queries it restores cannot be retracted by key;
// state-pr68 at f861414, the last whose snapshot sections each say their
// node's retraction memory, where the meta now says the process's once — here
// none, the checkpoint preceding the retraction, so that a build writing the
// meta's memory writes these files byte for byte too.
// snapshot.bin is a graceful checkpoint taken mid-script, wal.log the records
// appended after it up to a kill -9.

var parentStateDirs = []string{"testdata/state-pr18", "testdata/state-pr19", "testdata/state-pr20", "testdata/state-pr25", "testdata/state-pr32", "testdata/state-pr36", "testdata/state-pr38", "testdata/state-pr58", "testdata/state-pr68"}

// parentStateUnmarked is the last of parentStateDirs whose writer kept no
// interest marks: recovery derives none for the ones after it.
const parentStateUnmarked = "testdata/state-pr25"

// parentStateUnstanding is the last of parentStateDirs whose snapshot says no
// standing query: those after it restore theirs.
const parentStateUnstanding = "testdata/state-pr58"

const (
	parentStateNodes = 32
	parentStateSeed  = 19
	// parentStateNotifs is the notification count parentStateScript had
	// delivered when the writing process died.
	parentStateNotifs = 108
)

func parentStateCatalog() (*relation.Catalog, *relation.Schema, *relation.Schema) {
	r := relation.MustSchema("R", "A", "B", "C")
	s := relation.MustSchema("S", "D", "E", "F")
	return relation.MustCatalog(r, s), r, s
}

func parentStateEngine(catalog *relation.Catalog) *engine.Engine {
	net := chord.New(chord.Config{})
	net.AddNodes("peer", parentStateNodes)
	return engine.New(net, catalog, engine.Config{Seed: parentStateSeed})
}

// parentStateScript runs the fixture's workload against a fresh store
// under dir and leaves the files a kill -9 would: three subscriptions and
// a first stream of matches, a checkpoint, then a fourth subscription, a
// retraction and 24 more publications logged behind the snapshot. It
// returns the number of notifications delivered.
func parentStateScript(t *testing.T, dir string) int {
	catalog, r, s := parentStateCatalog()
	eng := parentStateEngine(catalog)
	st, err := Open(dir, catalog, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if _, err := st.Recover(eng); err != nil {
		t.Fatalf("recover: %v", err)
	}
	node := func(i int) *chord.Node { return eng.Network().Nodes()[i%parentStateNodes] }
	subscribe := func(i int, sql string) *query.Query {
		q, err := st.Subscribe(node(i), query.MustParse(catalog, sql))
		if err != nil {
			t.Fatalf("subscribe: %v", err)
		}
		return q
	}
	publish := func(i int, schema *relation.Schema, a, b, c float64) {
		if _, err := st.Publish(node(i), relation.MustTuple(schema, relation.N(a), relation.N(b), relation.N(c))); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	byB := subscribe(0, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
	subscribe(1, `SELECT R.B, S.E FROM R, S WHERE R.A = S.D`)
	subscribe(0, `SELECT S.D FROM R, S WHERE R.B = S.E AND R.C = 2`)
	for i := 0; i < 8; i++ {
		publish(2+i, r, float64(i), float64(i%3), float64(i%4))
		publish(9+i, s, float64(i+1), float64(i%3), 0)
	}
	if err := st.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	subscribe(5, `SELECT R.C, S.F FROM R, S WHERE R.C = S.F`)
	for i := 8; i < 20; i++ {
		if i == 14 {
			if err := st.Unsubscribe(node(0), byB); err != nil {
				t.Fatalf("unsubscribe: %v", err)
			}
		}
		publish(2+i, r, float64(i), float64(i%3), float64(i%4))
		publish(9+i, s, float64(i+1), float64(i%3), 0)
	}
	st.Abandon()
	return eng.NotificationCount()
}

// TestWriteParentState writes a fixture, the last of parentStateDirs. Like
// TestWriteSeedCorpus it is a maintenance tool: check out the commit whose
// on-disk format is to be pinned, name the new directory there, run with
// WRITE_CORPUS=1, commit the two files and check the count it logs.
func TestWriteParentState(t *testing.T) {
	dir := parentStateDirs[len(parentStateDirs)-1]
	if os.Getenv("WRITE_CORPUS") == "" {
		t.Skip("set WRITE_CORPUS=1 to regenerate " + dir)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	t.Logf("parentStateNotifs = %d", parentStateScript(t, dir))
}

// Each directory recovers into an engine that records its notifications and
// into one whose consumer takes them, as a daemon's does: the count is the
// writer's either way, and the consumer's engine keeps none of the
// notifications a parent's snapshot lists.
func TestParentWrittenStateRecovers(t *testing.T) {
	for _, from := range parentStateDirs {
		t.Run(filepath.Base(from), func(t *testing.T) {
			parentStateRecovers(t, from, false)
			parentStateRecovers(t, from, true)
		})
	}
}

func parentStateRecovers(t *testing.T, from string, consumed bool) {
	dir := t.TempDir()
	for _, name := range []string{snapName, walName} {
		data, err := os.ReadFile(filepath.Join(from, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	catalog, r, s := parentStateCatalog()
	eng := parentStateEngine(catalog)
	recorded := parentStateNotifs
	if consumed {
		eng.OnNotify(func(engine.Notification) {})
		recorded = 0
	}
	st, err := Open(dir, catalog, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	t.Cleanup(st.Abandon)
	if digest, err := os.ReadFile(filepath.Join(dir, catalogName)); err != nil || string(digest) != fmt.Sprintf("%016x\n", catalog.Digest()) {
		t.Fatalf("a directory with no digest did not take the catalog's: %q (%v)", digest, err)
	}
	info, err := st.Recover(eng)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if info.SnapshotLSN == 0 || info.Replayed < 20 || info.TornBytes != 0 {
		t.Fatalf("recovered %+v, want a snapshot and at least 20 whole wal records", info)
	}
	// Up to PR 25 the snapshot holds three SAI queries and no marks: one
	// re-derived each. From PR 26 on it holds the marks.
	wantMarks := 0
	if slices.Index(parentStateDirs, from) <= slices.Index(parentStateDirs, parentStateUnmarked) {
		wantMarks = 3
	}
	if info.DerivedMarks != wantMarks {
		t.Fatalf("recovery re-derived %d interest marks, want %d", info.DerivedMarks, wantMarks)
	}
	if got := eng.NotificationCount(); got != parentStateNotifs || len(eng.Notifications()) != recorded {
		t.Fatalf("recovered a count of %d and %d notifications, want %d and %d: the writer had delivered %d",
			got, len(eng.Notifications()), parentStateNotifs, recorded, parentStateNotifs)
	}
	// One fresh pair on values the script never used joins under R.A = S.D
	// alone: exactly one new notification.
	nodes := eng.Network().Nodes()
	for _, tu := range []*relation.Tuple{
		relation.MustTuple(r, relation.N(1000), relation.N(2000), relation.N(3000)),
		relation.MustTuple(s, relation.N(1000), relation.N(4000), relation.N(5000)),
	} {
		if _, err := st.Publish(nodes[3], tu); err != nil {
			t.Fatalf("publish: %v", err)
		}
	}
	if got := eng.NotificationCount(); got != parentStateNotifs+1 {
		t.Fatalf("a fresh matching pair delivered %d notifications, want 1", got-parentStateNotifs)
	}
	// Up to PR 58 a snapshot says no standing query: only the one its log
	// replays stands.
	checkStanding(t, eng, slices.Index(parentStateDirs, from) > slices.Index(parentStateDirs, parentStateUnstanding))
	// The retraction the log replays is remembered once, by the process.
	if got := eng.Census()["retracted"]; got != (engine.CensusEntry{Sum: 1, Max: 1}) {
		t.Fatalf("recovery remembers %+v retractions, want the one the log replays", got)
	}
}

// checkStanding holds eng, recovered from parentStateScript's files, to the
// queries that stand there (engine.Standing): the one subscribed after the
// checkpoint, which the log replays, and — where the snapshot says them
// (inSnapshot) — the two subscribed before it. The retracted one stands
// nowhere.
func checkStanding(t *testing.T, eng *engine.Engine, inSnapshot bool) {
	t.Helper()
	key := func(i, seq int) string { return fmt.Sprintf("%s#%d", eng.Network().Nodes()[i].Key(), seq) }
	for k, want := range map[string]bool{key(0, 1): false, key(1, 1): inSnapshot, key(0, 2): inSnapshot, key(5, 1): true} {
		if q := eng.Standing(k); (q != nil) != want || q != nil && q.Key() != k {
			t.Fatalf("query %s recovered as %v, want it standing: %v", k, q, want)
		}
	}
}

// A snapshot says its standing queries, so each recovers under its key and a
// restarted subscriber can retract it.
func TestRecoveredQueriesStand(t *testing.T) {
	dir := t.TempDir()
	parentStateScript(t, dir)
	catalog, _, _ := parentStateCatalog()
	eng := parentStateEngine(catalog)
	st, err := Open(dir, catalog, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Abandon()
	if _, err := st.Recover(eng); err != nil {
		t.Fatalf("recover: %v", err)
	}
	checkStanding(t, eng, true)
	if err := st.Unsubscribe(eng.Network().Nodes()[1], eng.Standing(eng.Network().Nodes()[1].Key()+"#1")); err != nil {
		t.Fatalf("retract a query the snapshot restored: %v", err)
	}
}

// A state directory says its queries as ordinals of the catalog it was written
// under (query.Query.Tokens): opened under another catalog it fails before any
// of it is decoded, naming both digests; under its own it recovers.
func TestStateDirectoryKeepsItsCatalog(t *testing.T) {
	dir := t.TempDir()
	delivered := parentStateScript(t, dir)
	other := relation.MustCatalog(relation.MustSchema("R", "A", "B", "C"), relation.MustSchema("S", "D", "E", "F", "G"))
	if st, err := Open(dir, other, Options{SnapshotEvery: -1}); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%016x", other.Digest())) {
		if err == nil {
			st.Abandon()
		}
		t.Fatalf("opened under another catalog: %v", err)
	}
	catalog, _, _ := parentStateCatalog()
	eng := parentStateEngine(catalog)
	st, err := Open(dir, catalog, Options{SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("open under its own catalog: %v", err)
	}
	defer st.Abandon()
	if _, err := st.Recover(eng); err != nil || eng.NotificationCount() != delivered {
		t.Fatalf("recovered %d notifications (%v), the writer delivered %d", eng.NotificationCount(), err, delivered)
	}
}
