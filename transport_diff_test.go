// Differential equivalence test for the TCP transport (DESIGN.md §10):
// replacing the simulated in-process delivery with the real framed TCP
// transport must not change a single observable result. Every algorithm
// runs the same seeded workload twice — once over simulated delivery,
// once with every delivery forced through a loopback socket
// (dial → frame → encode → decode → ack) — and the notification
// fingerprints plus the traffic ledgers are compared byte for byte.
package cqjoin_test

import (
	"fmt"
	"net"
	"reflect"
	"sort"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/exp"
	"cqjoin/internal/id"
	"cqjoin/internal/metrics"
	"cqjoin/internal/obs"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/transport"
	"cqjoin/internal/workload"
)

// loopbackTransport pushes every delivery of cnet through a real TCP
// socket on 127.0.0.1 and returns the transport's metric registry plus a
// cleanup func. OwnerOf names the transport's own listener for every node,
// and Self is another address, so each delivery dials that listener: the
// server it reaches never checks Self.
func loopbackTransport(t testing.TB, cnet *chord.Network, catalog *relation.Catalog) (*obs.Registry, func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	reg, addr := obs.NewRegistry(), ln.Addr().String()
	tr, err := transport.New(transport.Config{
		Self:    "loopback-sender",
		OwnerOf: func(id.ID) string { return addr },
		Codec:   engine.NewWireCodec(catalog),
		Local:   cnet,
		Seed:    7,
		Obs:     reg,
	})
	if err != nil {
		_ = ln.Close()
		t.Fatalf("transport.New: %v", err)
	}
	tr.Start(ln)
	cnet.SetTransport(tr)
	return reg, func() {
		cnet.SetTransport(nil)
		_ = tr.Close()
	}
}

// runFingerprint captures every deterministic observable of a run. Trace
// and timing-level observables (delivery interleavings, ip-learning
// events) are deliberately excluded: they are scheduling-dependent by
// nature, and no figure reads them.
type runFingerprint struct {
	Msgs, Hops    map[string]int64
	Bytes         map[string]int64 // per kind: a byte booked under another kind is a divergence too
	Retries, Lost int64
	TF, TS        []int64
	Notes         []string
}

// transportScenario runs one seeded two-way workload, its queries
// subscribed by subscribe, and fingerprints it. With overTCP the entire
// message flow crosses the loopback socket.
func transportScenario(t *testing.T, alg engine.Algorithm, sc exp.Scale, overTCP bool, subscribe func(*exp.Run, int)) runFingerprint {
	t.Helper()
	r := exp.Setup(engine.Config{Algorithm: alg, MaxRetries: 3}, sc, workload.Params{})
	r.Eng.OnNotify(nil) // the fingerprint holds every notification
	var reg *obs.Registry
	if overTCP {
		var cleanup func()
		reg, cleanup = loopbackTransport(t, r.Net, r.Gen.Catalog())
		defer cleanup()
	}
	subscribe(r, sc.Queries)
	r.ResetMeters()
	r.PublishTuples(sc.Tuples)

	tr := r.Net.Traffic()
	fp := runFingerprint{
		Bytes:   bytesByKind(tr),
		Retries: tr.TotalRetries(),
		Lost:    tr.TotalLost(),
		TF:      r.Eng.FilteringLoads(),
		TS:      r.Eng.StorageLoads(),
	}
	fp.Msgs, fp.Hops = tr.Snapshot()
	for _, n := range r.Eng.Notifications() {
		fp.Notes = append(fp.Notes, fmt.Sprintf("%s|%d|%d", n.ContentKey(), n.LeftPubT, n.RightPubT))
	}
	sort.Strings(fp.Notes)
	if overTCP {
		snap := reg.Snapshot()
		if snap["transport.dials"] == 0 {
			t.Fatal("loopback run never dialed; the socket path was not exercised")
		}
		if snap["transport.frame_bytes_out"] == 0 || snap["transport.frames_in"] == 0 {
			t.Fatalf("loopback run moved no frames: %v", snap)
		}
		if snap["transport.decode_errors"] != 0 || snap["transport.rpc_failures"] != 0 {
			t.Fatalf("loopback run had transport errors: %v", snap)
		}
	}
	return fp
}

// bytesByKind reads the ledger's wire bytes, kind by kind.
func bytesByKind(tr *metrics.Traffic) map[string]int64 {
	out := map[string]int64{}
	msgs, _ := tr.Snapshot()
	for kind := range msgs {
		if b := tr.Bytes(kind); b != 0 {
			out[kind] = b
		}
	}
	return out
}

// invertedQueries subscribes n queries whose join condition a rewriter must
// solve for the other side, R.x = S.y * 2 + 1, with a selection: the
// generator's T1 queries (R.x = S.y) never invert, so without these no
// derived rewrite target would cross the socket.
func invertedQueries(r *exp.Run, n int) {
	for i := 0; i < n; i++ {
		p := i % r.Gen.Params().Pairs
		sql := fmt.Sprintf("SELECT R%[1]d.a0, S%[1]d.a0 FROM R%[1]d, S%[1]d WHERE R%[1]d.a%[2]d = S%[1]d.a%[3]d * 2 + 1 AND R%[1]d.a3 >= 2",
			p, i%3, (i/3)%3)
		if _, err := r.Eng.Subscribe(r.Nodes[(i*37)%len(r.Nodes)], query.MustParse(r.Gen.Catalog(), sql)); err != nil {
			panic(err)
		}
	}
}

// TestTransportDifferential is the acceptance gate for the transport
// tentpole: for all four algorithms the TCP loopback run must reproduce
// the simulated run's results exactly, chaos off — and so must SAI and
// DAI-T with queries whose rewrites invert their join condition.
func TestTransportDifferential(t *testing.T) {
	sc := exp.Scale{Nodes: 96, Queries: 120, Tuples: 160, Seed: 23}
	if testing.Short() {
		sc = exp.Scale{Nodes: 64, Queries: 60, Tuples: 80, Seed: 23}
	}
	type cell struct {
		name      string
		alg       engine.Algorithm
		subscribe func(*exp.Run, int)
	}
	var cells []cell
	for _, alg := range []engine.Algorithm{engine.SAI, engine.DAIQ, engine.DAIT, engine.DAIV} {
		cells = append(cells, cell{alg.String(), alg, (*exp.Run).SubscribeT1})
	}
	for _, alg := range []engine.Algorithm{engine.SAI, engine.DAIT} {
		cells = append(cells, cell{alg.String() + "-inverted", alg, invertedQueries})
	}
	for _, c := range cells {
		t.Run(c.name, func(t *testing.T) {
			sim := transportScenario(t, c.alg, sc, false, c.subscribe)
			tcp := transportScenario(t, c.alg, sc, true, c.subscribe)
			if len(sim.Notes) == 0 {
				t.Fatal("scenario delivered no notifications; it exercises nothing")
			}
			if !reflect.DeepEqual(sim.Notes, tcp.Notes) {
				t.Errorf("notification sets diverge: sim=%d notes, tcp=%d notes", len(sim.Notes), len(tcp.Notes))
			}
			if !reflect.DeepEqual(sim.Msgs, tcp.Msgs) {
				t.Errorf("per-kind message counts diverge:\n sim=%v\n tcp=%v", sim.Msgs, tcp.Msgs)
			}
			if !reflect.DeepEqual(sim.Hops, tcp.Hops) {
				t.Errorf("per-kind hop counts diverge:\n sim=%v\n tcp=%v", sim.Hops, tcp.Hops)
			}
			if !reflect.DeepEqual(sim.Bytes, tcp.Bytes) || len(sim.Bytes) == 0 {
				t.Errorf("per-kind wire bytes diverge:\n sim=%v\n tcp=%v", sim.Bytes, tcp.Bytes)
			}
			if sim.Retries != tcp.Retries || sim.Lost != tcp.Lost {
				t.Errorf("retry/lost counters diverge: sim=(%d,%d) tcp=(%d,%d)",
					sim.Retries, sim.Lost, tcp.Retries, tcp.Lost)
			}
			if !reflect.DeepEqual(sim.TF, tcp.TF) {
				t.Errorf("filtering-load vector diverges")
			}
			if !reflect.DeepEqual(sim.TS, tcp.TS) {
				t.Errorf("storage-load vector diverges")
			}
		})
	}
}

// TestTransportDifferentialMultiWay repeats the equivalence check for the
// multi-way chain-join pipeline (mjoin/purge message families) under the
// tuple-storing algorithms.
func TestTransportDifferentialMultiWay(t *testing.T) {
	catalog := relation.MustCatalog(
		relation.MustSchema("A", "x", "y", "z"),
		relation.MustSchema("B", "x", "y", "z"),
		relation.MustSchema("C", "x", "y", "z"),
	)
	scenario := func(t *testing.T, alg engine.Algorithm, overTCP bool) ([]string, map[string]int64) {
		t.Helper()
		cnet := chord.New(chord.Config{})
		cnet.AddNodes("peer", 48)
		eng := engine.New(cnet, catalog, engine.Config{Algorithm: alg, Strategy: engine.StrategyLeft, Seed: 9})
		if overTCP {
			_, cleanup := loopbackTransport(t, cnet, catalog)
			defer cleanup()
		}
		nodes := cnet.Nodes()
		mqs := []string{
			`SELECT A.z, C.z FROM A, B, C WHERE A.x = B.y AND B.x = C.y`,
			`SELECT A.z FROM A, B, C WHERE A.y = B.y AND B.x = C.x`,
		}
		for i, sql := range mqs {
			if _, err := eng.Subscribe(nodes[i], query.MustParse(catalog, sql)); err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
		}
		schemas := []*relation.Schema{catalog.Lookup("A"), catalog.Lookup("B"), catalog.Lookup("C")}
		// A fixed dense workload over a tiny domain so chains complete.
		for i := 0; i < 45; i++ {
			s := schemas[i%3]
			tu := relation.MustTuple(s,
				relation.N(float64(i%3)), relation.N(float64((i/3)%3)), relation.N(float64(i)))
			if _, err := eng.Publish(nodes[(i*7)%len(nodes)], tu); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		var notes []string
		for _, n := range eng.Notifications() {
			notes = append(notes, fmt.Sprintf("%s|%d|%d", n.ContentKey(), n.LeftPubT, n.RightPubT))
		}
		sort.Strings(notes)
		return notes, bytesByKind(cnet.Traffic())
	}
	for _, alg := range []engine.Algorithm{engine.SAI, engine.DAIQ} {
		t.Run(alg.String(), func(t *testing.T) {
			sim, simBytes := scenario(t, alg, false)
			tcp, tcpBytes := scenario(t, alg, true)
			if len(sim) == 0 {
				t.Fatal("multi-way scenario delivered no notifications; it exercises nothing")
			}
			if !reflect.DeepEqual(sim, tcp) {
				t.Errorf("multi-way notification sets diverge: sim=%d tcp=%d", len(sim), len(tcp))
			}
			if !reflect.DeepEqual(simBytes, tcpBytes) || len(simBytes) == 0 {
				t.Errorf("multi-way per-kind wire bytes diverge:\n sim=%v\n tcp=%v", simBytes, tcpBytes)
			}
		})
	}
}

// TestTransportDifferentialRetraction repeats the check for a retraction whose
// rewriter fanned out to many evaluators. Its purge walk lands 32 purges of one
// query on a ring of 16 nodes, so some node takes several in one frame, each
// behind one of the same query: the bytes the simulator books for them must be
// what the socket carries, and the retracted query must stay silent both ways.
func TestTransportDifferentialRetraction(t *testing.T) {
	catalog := relation.MustCatalog(
		relation.MustSchema("R", "A", "B"),
		relation.MustSchema("S", "B", "C"),
	)
	scenario := func(t *testing.T, overTCP bool) runFingerprint {
		t.Helper()
		cnet := chord.New(chord.Config{})
		cnet.AddNodes("peer", 16)
		eng := engine.New(cnet, catalog, engine.Config{Algorithm: engine.SAI, Strategy: engine.StrategyLeft, Seed: 9})
		if overTCP {
			reg, cleanup := loopbackTransport(t, cnet, catalog)
			defer func() {
				if snap := reg.Snapshot(); snap["transport.frames_in"] == 0 || snap["transport.decode_errors"] != 0 {
					t.Errorf("the loopback run moved no frames, or failed to decode one: %v", snap)
				}
				cleanup()
			}()
		}
		nodes := cnet.Nodes()
		var qs []*query.Query
		for i := 0; i < 2; i++ {
			q, err := eng.Subscribe(nodes[i], query.MustParse(catalog, `SELECT R.A, S.C FROM R, S WHERE R.B = S.B`))
			if err != nil {
				t.Fatalf("Subscribe: %v", err)
			}
			qs = append(qs, q)
		}
		publish := func(i int, rel string, vals ...relation.Value) {
			t.Helper()
			if _, err := eng.Publish(nodes[i%len(nodes)], relation.MustTuple(catalog.Lookup(rel), vals...)); err != nil {
				t.Fatalf("Publish: %v", err)
			}
		}
		for i := 0; i < 32; i++ {
			publish(i, "R", relation.N(float64(i)), relation.S(fmt.Sprintf("k%d", 100+i)))
		}
		if err := eng.Unsubscribe(nodes[0], qs[0]); err != nil {
			t.Fatalf("Unsubscribe: %v", err)
		}
		for i := 0; i < 32; i += 4 {
			publish(i, "S", relation.S(fmt.Sprintf("k%d", 100+i)), relation.N(float64(i)))
		}
		tr := cnet.Traffic()
		fp := runFingerprint{Bytes: bytesByKind(tr), TS: eng.StorageLoads()} // a purge that missed its rewrite leaves it stored
		fp.Msgs, fp.Hops = tr.Snapshot()
		for _, n := range eng.Notifications() {
			if n.Subscriber != nodes[1].Key() {
				t.Errorf("the retracted query notified %s", n.ContentKey())
			}
			fp.Notes = append(fp.Notes, fmt.Sprintf("%s|%d|%d", n.ContentKey(), n.LeftPubT, n.RightPubT))
		}
		sort.Strings(fp.Notes)
		return fp
	}
	sim, tcp := scenario(t, false), scenario(t, true)
	if len(sim.Notes) != 8 || sim.Msgs["unsubscribe"] < 32 {
		t.Fatalf("%d notifications, %d retraction messages: the scenario exercises nothing", len(sim.Notes), sim.Msgs["unsubscribe"])
	}
	if !reflect.DeepEqual(sim, tcp) {
		t.Errorf("the runs diverge:\n sim=%+v\n tcp=%+v", sim, tcp)
	}
}
