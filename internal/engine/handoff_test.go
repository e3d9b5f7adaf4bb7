package engine

import (
	"bytes"
	"fmt"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
)

// A hand-off strips every node's tables into wire sections and the receiver
// rebuilds them through the table types' merge path. Run once with the hot
// value's buckets small enough to be scanned and once with them indexed: in
// both, state that went over the wire and came back — delivered twice, as a
// retried hand-off is — must weigh what it did and answer later tuples as an
// engine that never moved.
func TestHandoffAcrossTableThreshold(t *testing.T) {
	for _, n := range []int{smallTableMax / 2, 3 * smallTableMax} {
		t.Run(fmt.Sprintf("%d per bucket", n), func(t *testing.T) {
			build := func() *testEnv {
				env := newTestEnv(t, 32, Config{Algorithm: SAI, Seed: 3})
				for i := 0; i < 2; i++ {
					env.subscribe(t, i, `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`)
				}
				publishHotPair(t, env, n, n)
				return env
			}
			control, moved := build(), build()
			if got := largestTupleTable(moved); got != n {
				t.Fatalf("fullest tuple bucket holds %d, want %d", got, n)
			}
			before := moved.eng.StorageLoads()

			type parcel struct {
				node *chord.Node
				msg  chord.Message
			}
			var parcels []parcel
			for _, node := range moved.nodes {
				msg, ok := moved.eng.ExportHandoff(node)
				if !ok {
					continue
				}
				var w wire.Buffer
				if err := EncodeMessage(&w, msg); err != nil {
					t.Fatal(err)
				}
				if s := MessageSize(msg); s != w.Len() {
					t.Fatalf("hand-off of %s: Size()=%d, encoding=%d", node, s, w.Len())
				}
				decoded, err := DecodeMessage(wire.NewReader(w.Bytes()), moved.catalog)
				if err != nil {
					t.Fatal(err)
				}
				parcels = append(parcels, parcel{node, decoded})
			}
			if got := sum(moved.eng.StorageLoads()); got != 0 {
				t.Fatalf("storage load %d after exporting every node, want 0", got)
			}
			for round := 0; round < 2; round++ {
				for _, p := range parcels {
					moved.eng.state(p.node).HandleMessage(p.node, p.msg)
				}
				if got := moved.eng.StorageLoads(); !reflect.DeepEqual(got, before) {
					t.Fatalf("delivery %d: storage loads\n%v\nbefore the hand-off\n%v", round+1, got, before)
				}
			}
			if got := largestTupleTable(moved); got != n {
				t.Fatalf("fullest tuple bucket holds %d after the hand-off, want %d", got, n)
			}
			for _, env := range []*testEnv{control, moved} {
				env.publish(t, 5, sTuple(env, 900, 7, 900))
				env.publish(t, 6, rTuple(env, 901, 7, 901))
			}
			if got, want := contentKeys(moved.eng.Notifications()), contentKeys(control.eng.Notifications()); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d notifications after the hand-off, %d on the engine that never moved", len(got), len(want))
			}
		})
	}
}

// Every move of a node's state — a join, a leave, a crash, a join by protocol
// and a process hand-off — must keep every table it moves: after each, the
// ring stores what it stored before, wherever it now stores it, and weighs and
// counts (Engine.Census) the same. The hand-off crosses the wire, which does
// not carry the probe statistics; the moves inside the process do.
func TestEveryMoveKeepsEveryTable(t *testing.T) {
	const pair = `SELECT R.A, S.D FROM R, S WHERE R.B = S.E`
	publishPairs := func(t *testing.T, env *testEnv) {
		for i := 0; i < 6; i++ {
			env.publish(t, 10+i, rTuple(env, float64(i), float64(i%3), 1))
			env.publish(t, 20+i, sTuple(env, float64(i), float64(i%3), 9))
		}
	}
	for _, tc := range []struct {
		name   string
		cfg    Config
		fill   func(t *testing.T, env *testEnv)
		tables []string // what the fill must leave on the ring
	}{{
		name: "SAI",
		cfg:  Config{Algorithm: SAI, Strategy: StrategyMinRate, Seed: 5},
		fill: func(t *testing.T, env *testEnv) {
			env.subscribe(t, 0, pair)
			env.subscribe(t, 1, pair+` AND R.C = 1`)
			if err := env.eng.Unsubscribe(env.node(2), env.subscribe(t, 2, pair+` AND S.F = 9`)); err != nil {
				t.Fatal(err)
			}
			if _, err := env.eng.Subscribe(env.node(3), query.MustParse(env.catalog,
				`SELECT R.A, Authors.Name FROM R, S, Authors WHERE R.B = S.E AND S.F = Authors.Id`)); err != nil {
				t.Fatal(err)
			}
			offline := env.node(4)
			env.subscribe(t, 4, pair)
			env.publish(t, 5, rTuple(env, 40, 4, 0))
			env.net.Leave(offline)
			env.eng.Detach(offline)
			env.publish(t, 6, sTuple(env, 41, 4, 0))
			publishPairs(t, env)
			env.publish(t, 7, relation.MustTuple(env.authors, relation.N(9), relation.N(1), relation.N(2)))
		},
		tables: []string{"al", "al-mark", "al-targets", "notif", "probe", "retracted", "vq", "vq-targets", "vt"},
	}, {
		name: "DAI-T",
		cfg:  Config{Algorithm: DAIT},
		fill: func(t *testing.T, env *testEnv) {
			env.subscribe(t, 0, pair)
			publishPairs(t, env)
			env.publish(t, 10, rTuple(env, 6, 0, 1)) // asks: no query reads R.A or R.C
		},
		tables: []string{"al", "al-grant", "al-sent"},
	}, {
		name: "SAI hot keys",
		cfg:  Config{Algorithm: SAI, HotKeyThreshold: 4, HotKeyReplicas: 2, Seed: 5},
		fill: func(t *testing.T, env *testEnv) {
			env.subscribe(t, 0, pair)
			publishHotPair(t, env, 8, 4)
			publishPairs(t, env)
		},
		tables: []string{"al", "hot", "vq", "vt"},
	}, {
		name: "DAI-V",
		cfg:  Config{Algorithm: DAIV},
		fill: func(t *testing.T, env *testEnv) {
			env.subscribe(t, 0, pair)
			publishPairs(t, env)
		},
		tables: []string{"al", "dv"},
	}} {
		t.Run(tc.name, func(t *testing.T) {
			env := newTestEnv(t, 32, tc.cfg)
			tc.fill(t, env)
			want, wantStorage, wantCensus := stateDump(env), sum(env.eng.StorageLoads()), censusSums(env.eng)
			held := map[string]bool{}
			var inputs []string // the keys that place what the ring holds
			for _, line := range want {
				f := strings.Fields(line)
				held[f[0]] = true
				if f[0] != "retracted" {
					inputs = append(inputs, f[1])
				}
			}
			for _, table := range tc.tables {
				if !held[table] {
					t.Fatalf("the fill left no %s entry on the ring", table)
				}
			}
			sort.Strings(inputs)
			inputs = slices.Compact(inputs)

			for i, move := range []string{"join", "leave", "crash", "join by protocol"} {
				input := inputs[i*len(inputs)/4]
				owner := env.net.OracleSuccessor(id.Hash(input))
				switch move {
				case "join":
					n, err := env.net.Join(keyTaking(t, env.net, input))
					if err != nil {
						t.Fatal(err)
					}
					env.eng.Attach(n)
				case "leave":
					env.net.Leave(owner)
					env.eng.Detach(owner)
				case "crash":
					env.eng.FailNode(owner)
				case "join by protocol":
					if _, err := env.eng.JoinNodeProtocol(keyTaking(t, env.net, input)); err != nil {
						t.Fatal(err)
					}
					env.net.StabilizeAll(3)
				}
				if got := env.net.OracleSuccessor(id.Hash(input)); got == owner {
					t.Fatalf("%s: %s stayed on %s", move, input, owner)
				}
				if got := stateDump(env); !slices.Equal(got, want) {
					t.Fatalf("after the %s the ring stores\n%s\nwant\n%s", move, strings.Join(got, "\n"), strings.Join(want, "\n"))
				}
				if got := sum(env.eng.StorageLoads()); got != wantStorage {
					t.Fatalf("after the %s the storage loads sum to %d, want %d", move, got, wantStorage)
				}
				if got := censusSums(env.eng); !maps.Equal(got, wantCensus) {
					t.Fatalf("after the %s the census sums are\n%v\nwant\n%v", move, got, wantCensus)
				}
			}

			type parcel struct {
				node *chord.Node
				msg  chord.Message
			}
			var parcels []parcel
			for _, n := range env.net.Nodes() {
				msg, ok := env.eng.ExportHandoff(n)
				if !ok {
					continue
				}
				var w wire.Buffer
				if err := EncodeMessage(&w, msg); err != nil {
					t.Fatal(err)
				}
				decoded, err := DecodeMessage(wire.NewReader(w.Bytes()), env.catalog)
				if err != nil {
					t.Fatal(err)
				}
				parcels = append(parcels, parcel{n, decoded})
			}
			// The retraction memory is the process's, not a node's: it stays.
			if left := nodeTables(wireOnly(stateDump(env))); len(left) != 0 {
				t.Fatalf("the hand-off left behind\n%s", strings.Join(left, "\n"))
			}
			for _, p := range parcels {
				env.eng.state(p.node).HandleMessage(p.node, p.msg)
			}
			if got, want := wireOnly(stateDump(env)), wireOnly(want); !slices.Equal(got, want) {
				t.Fatalf("after the hand-off the ring stores\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
			}
			if got := sum(env.eng.StorageLoads()); got != wantStorage {
				t.Fatalf("after the hand-off the storage loads sum to %d, want %d", got, wantStorage)
			}
		})
	}
}

// censusSums returns the sums of eng's census, by structure.
func censusSums(eng *Engine) map[string]int {
	sums := make(map[string]int)
	for name, c := range eng.Census() {
		sums[name] = c.Sum
	}
	return sums
}

// stateDump renders what the ring stores as a sorted set of lines that name
// no node: every node's cut, copied, then the probe statistics that only a
// move inside the process carries, and the process's retraction memory.
func stateDump(env *testEnv) []string {
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	for _, n := range env.net.Nodes() {
		st := env.eng.state(n)
		m := st.cut(nil, false)
		for _, sec := range m.AL {
			for _, g := range sec.Groups {
				for _, q := range g.Queries {
					add("al %s %s %d %s", sec.Input, g.Cond, g.Side, q.Key())
				}
			}
			for _, k := range sec.SentRewrites {
				add("al-sent %s %s", sec.Input, k)
			}
			for _, e := range sec.SentTargets {
				add("al-targets %s %s %v", sec.Input, e.Key, e.Targets)
			}
			for _, k := range sec.Interest {
				add("al-mark %s %s", sec.Input, k)
			}
			for _, k := range sec.Grants {
				add("al-grant %s %s", sec.Input, k)
			}
		}
		for _, sec := range m.VQ {
			for _, e := range sec.Entries {
				add("vq %s %s %v %v", sec.ID, e.Rw.key(), e.Times, projectedMatch(e.Rw))
			}
			for _, e := range sec.SentTargets {
				add("vq-targets %s %s %v", sec.ID, e.Key, e.Targets)
			}
		}
		for _, sec := range m.VT {
			for _, tu := range sec.Tuples {
				add("vt %s %s", sec.ID, contentKey(tu))
			}
		}
		for _, sec := range m.DV {
			for _, e := range sec.Entries {
				for _, tu := range e.Left {
					add("dv %s %s left %s", sec.Input, e.Cond, contentKey(tu))
				}
				for _, tu := range e.Right {
					add("dv %s %s right %s", sec.Input, e.Cond, contentKey(tu))
				}
			}
		}
		for _, sec := range m.Notifs {
			for _, n := range sec.Batch {
				add("notif %s %s", sec.Subscriber, n.ContentKey())
			}
		}
		for _, sec := range m.Hot {
			add("hot %s %d %d %v", sec.Input, sec.Count, sec.WindowStart, sec.Promoted)
		}
		st.mu.Lock()
		for input, b := range st.alqt {
			if len(b.arrivals) > 0 || len(b.distinct) > 0 {
				arrivals := slices.Clone(b.arrivals)
				slices.Sort(arrivals)
				add("probe %s %v %v", input, arrivals, sortedKeys(b.distinct))
			}
		}
		st.mu.Unlock()
	}
	for _, k := range env.eng.retractedKeys() {
		add("retracted %s", k)
	}
	sort.Strings(lines)
	return lines
}

// wireOnly drops from a dump the lines no wire form carries.
func wireOnly(dump []string) []string {
	return slices.DeleteFunc(slices.Clone(dump), func(line string) bool {
		return strings.HasPrefix(line, "probe ")
	})
}

// nodeTables drops from a dump the lines of what the process, not a node,
// holds.
func nodeTables(dump []string) []string {
	return slices.DeleteFunc(slices.Clone(dump), func(line string) bool {
		return strings.HasPrefix(line, "retracted ")
	})
}

// keyTaking returns a node key whose joiner takes input over: its identifier
// lies in [Hash(input), owner), the part of the owner's arc a joiner splits off.
func keyTaking(t *testing.T, net *chord.Network, input string) string {
	t.Helper()
	at, owner := id.Hash(input), net.OracleSuccessor(id.Hash(input)).ID()
	for i := 0; i < 1<<20; i++ {
		key := fmt.Sprintf("joiner-%d", i)
		if id.BetweenLeftIncl(id.Hash(key), at, owner) {
			return key
		}
	}
	t.Fatalf("no joiner key takes %s over", input)
	return ""
}

// A hand-off unions its process's retraction memory into the receiver's, and
// a memory that fills up restarts part-way: which keys it keeps depends on the
// order they arrive in, so two runs from one seed must send one order.
func TestRetractionMemoryMovesInOneOrder(t *testing.T) {
	kept := func() []string {
		src, heir := newTestEnv(t, 8, Config{Algorithm: SAI}), newTestEnv(t, 8, Config{Algorithm: SAI})
		for _, fill := range []struct {
			env    *testEnv
			prefix string
			count  int
		}{{heir, "old", retractedMax - 10}, {src, "new", 100}} {
			keys := make([]string, fill.count)
			for i := range keys {
				keys[i] = fmt.Sprintf("%s-%d", fill.prefix, i)
			}
			fill.env.eng.retract(keys...)
		}
		node := src.nodes[0]
		msg, ok := src.eng.ExportHandoff(node)
		if !ok {
			t.Fatalf("%s's hand-off carries nothing", node)
		}
		var w wire.Buffer
		if err := EncodeMessage(&w, msg); err != nil {
			t.Fatal(err)
		}
		decoded, err := DecodeMessage(wire.NewReader(w.Bytes()), heir.catalog)
		if err != nil {
			t.Fatal(err)
		}
		heir.eng.state(heir.nodes[0]).HandleMessage(heir.nodes[0], decoded)
		return heir.eng.retractedKeys()
	}
	first, second := kept(), kept()
	if len(first) != 90 {
		t.Fatalf("the heir kept %d retractions, want the 90 that followed its restart", len(first))
	}
	if !slices.Equal(first, second) {
		t.Fatalf("two identical hand-offs left different retraction memories:\n%v\n%v", first, second)
	}
}

// A rewrite that spells a key its target does not derive — the fixtures'
// n#1+1+7 under query key peer5#1, as a parent's hand-off may carry — keeps
// it from decode to hand-off: its repeat in the join decodes onto the same
// target, joinAt stores the one rewrite, vlqt_spelled_keys counts it, and a
// cut of its bucket writes the bytes a hand-off of the sent rewrite does.
func TestSpelledKeySurvivesStorageAndHandOff(t *testing.T) {
	catalog, msgs := codecFixtures(t)
	sent := msgs[3].(*joinMsg)
	rw := &sent.Rewrites[0]
	if rw.spelledKey() != "n#1+1+7" || rw.derives(rw.spelledKey()) {
		t.Fatalf("the fixture's rewrite holds key %q, derived %v", rw.spelledKey(), rw.keyDerived())
	}
	var w wire.Buffer
	if err := EncodeMessage(&w, sent); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeMessage(wire.NewReader(w.Bytes()), catalog)
	if err != nil {
		t.Fatal(err)
	}
	join := got.(*joinMsg)
	if join.Rewrites[0].spelledKey() != rw.spelledKey() || join.Rewrites[1].rewriteTarget != join.Rewrites[0].rewriteTarget {
		t.Fatalf("decoded keys %q and %q, one target: %v", join.Rewrites[0].spelledKey(), join.Rewrites[1].spelledKey(),
			join.Rewrites[1].rewriteTarget == join.Rewrites[0].rewriteTarget)
	}

	env := newTestEnv(t, 16, Config{Algorithm: SAI})
	st := env.eng.state(env.node(0))
	h := vlHash(rw.appendInput(nil))
	var work int
	st.mu.Lock()
	st.joinAt(h, join.Rewrites, &work, nil, nil)
	st.mu.Unlock()
	if c := env.eng.Census(); c["vlqt_rewrites"].Sum != 1 || c["vlqt_spelled_keys"].Sum != 1 {
		t.Fatalf("census counts %d rewrites, %d spelled keys; want 1 and 1", c["vlqt_rewrites"].Sum, c["vlqt_spelled_keys"].Sum)
	}

	cut := st.cut(func(x id.ID) bool { return x == h }, false)
	want := handoffMsg{VQ: []vqSection{{ID: h, Entries: []vqEntry{{Rw: rw, Times: []int64{rw.Trigger.PubT()}}}}}}
	if a, b := encodedBytes(t, cut), encodedBytes(t, want); !bytes.Equal(a, b) {
		t.Fatalf("the stored rewrite's hand-off is\n%x\nthe sent one's\n%x", a, b)
	}
}

// encodedBytes returns msg's encoding.
func encodedBytes(t *testing.T, msg chord.Message) []byte {
	t.Helper()
	var w wire.Buffer
	if err := EncodeMessage(&w, msg); err != nil {
		t.Fatal(err)
	}
	return w.Bytes()
}
