package durable

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
	"cqjoin/internal/wire"
	"cqjoin/internal/workload"
)

// Regressions for the review findings on the durable store: apply/log
// order agreement under concurrent client ops, the group-commit leader
// racing a checkpoint's descriptor swap, and fail-stop after a WAL
// write error.

// buildStoreEngine opens a store over dir bound to a fresh engine.
func buildStoreEngine(t *testing.T, gen *workload.Generator, dir string, nodes int, snapshotEvery int) (*engine.Engine, *Store) {
	t.Helper()
	net := chord.New(chord.Config{})
	net.AddNodes("peer", nodes)
	eng := engine.New(net, gen.Catalog(), engine.Config{Seed: 7})
	st, err := Open(dir, gen.Catalog(), Options{SnapshotEvery: snapshotEvery})
	if err != nil {
		t.Fatalf("open store: %v", err)
	}
	if _, err := st.Recover(eng); err != nil {
		t.Fatalf("recover: %v", err)
	}
	return eng, st
}

func contentKey(tpl *relation.Tuple) string {
	return fmt.Sprintf("%s%v", tpl.Relation(), tpl.Values())
}

// TestConcurrentOpsExactReplay drives publishes and same-subscriber
// subscribes from 8 goroutines and requires the WAL to agree with the
// engine apply order: acked publication stamps must be strictly
// increasing in log order, replay must re-derive the exact acked
// subscription keys (Recover fails with "replay diverged" otherwise),
// and the recovered clock must sit exactly where the crashed engine's
// did. Without apply+log serialization a concurrent run interleaves
// clock ticks and appends in different orders and recovery re-stamps
// acked tuples with different times.
func TestConcurrentOpsExactReplay(t *testing.T) {
	const (
		workers   = 8
		perWorker = 60
		subEvery  = 10 // subscribe cadence within each worker's stream
	)
	gen := workload.New(workload.Params{Seed: 53})
	catalog := gen.Catalog()
	schema := gen.LeftSchema(0)
	dir := t.TempDir()
	eng, st := buildStoreEngine(t, gen, dir, workers, -1)
	net := eng.Network()

	// Pregenerate parse results so goroutines only exercise the store.
	queries := make([][]*query.Query, workers)
	for w := range queries {
		for i := 0; i < perWorker/subEvery; i++ {
			q, err := query.Parse(catalog, gen.Query().Text())
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			queries[w] = append(queries[w], q)
		}
	}

	acked := make([]map[string]int64, workers) // tuple content -> acked PubT
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		acked[w] = make(map[string]int64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			from := net.NodeByKey(fmt.Sprintf("peer%d", w))
			subscriber := net.NodeByKey("peer0") // shared: contends on the seq counter
			for i := 0; i < perWorker; i++ {
				vals := make([]relation.Value, schema.Arity())
				for j := range vals {
					vals[j] = relation.N(float64(w*1000000 + i*100 + j)) // unique per tuple
				}
				tpl := relation.MustTuple(schema, vals...)
				res, err := st.Publish(from, tpl)
				if err != nil {
					t.Errorf("worker %d publish %d: %v", w, i, err)
					return
				}
				acked[w][contentKey(tpl)] = res.PubT()
				if i%subEvery == subEvery-1 {
					if _, err := st.Subscribe(subscriber, queries[w][i/subEvery]); err != nil {
						t.Errorf("worker %d subscribe: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// The never-crashed engine's next stamp is the replay oracle.
	oracleNext, err := eng.Publish(net.NodeByKey("peer0"), gen.Tuple())
	if err != nil {
		t.Fatalf("oracle publish: %v", err)
	}
	st.Abandon()

	stamps := make(map[string]int64)
	for _, m := range acked {
		for k, v := range m {
			stamps[k] = v
		}
	}
	st2, err := Open(dir, catalog, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	last := int64(0)
	checked := 0
	for _, rec := range st2.recs {
		p, ok := rec.(publishRec)
		if !ok {
			continue
		}
		got, ok := stamps[contentKey(p.T)]
		if !ok {
			t.Fatalf("wal holds a publish no worker acked: %v", p.T)
		}
		if got <= last {
			t.Fatalf("acked PubT %d out of order in the wal (previous %d): log order diverged from apply order", got, last)
		}
		last = got
		checked++
	}
	if checked != workers*perWorker {
		t.Fatalf("wal holds %d publishes, acked %d", checked, workers*perWorker)
	}

	// Replay re-derives subscription keys and stamps; any divergence from
	// the acked values fails Recover.
	net2 := chord.New(chord.Config{})
	net2.AddNodes("peer", workers)
	eng2 := engine.New(net2, catalog, engine.Config{Seed: 7})
	if _, err := st2.Recover(eng2); err != nil {
		t.Fatalf("recover after concurrent ops: %v", err)
	}
	recoveredNext, err := eng2.Publish(net2.NodeByKey("peer0"), gen.Tuple())
	if err != nil {
		t.Fatalf("post-recovery publish: %v", err)
	}
	if recoveredNext.PubT() != oracleNext.PubT() {
		t.Errorf("recovered clock at %d, never-crashed oracle at %d", recoveredNext.PubT(), oracleNext.PubT())
	}
}

// TestCheckpointRacesGateFreeAppends hammers checkpoints against
// gate-free appends. The checkpoint's WAL rewrite closes and swaps the
// file descriptor; a group-commit leader syncing concurrently must not
// observe the swap (a data race on the pointer, and a spurious
// ErrClosed ack failure for a record that is durable). Every acked
// append must also survive recovery.
func TestCheckpointRacesGateFreeAppends(t *testing.T) {
	const (
		workers   = 8
		perWorker = 400
	)
	gen := workload.New(workload.Params{Seed: 59})
	dir := t.TempDir()
	_, st := buildStoreEngine(t, gen, dir, 4, -1)

	var wg sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				v := &wire.MemberView{Version: uint64(w*perWorker + i), Origin: "10.0.0.1:7570", Procs: []string{"10.0.0.1:7570"}}
				if err := st.LogView(v); err != nil {
					t.Errorf("gate-free append during checkpoint: %v", err)
					return
				}
			}
		}(w)
	}
	go func() { wg.Wait(); close(done) }()
	// Checkpoint continuously until the appenders drain: every rewrite
	// races the group-commit leaders' fsyncs.
	for i := 0; ; i++ {
		if err := st.Checkpoint(); err != nil {
			t.Fatalf("checkpoint %d: %v", i, err)
		}
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	if t.Failed() {
		return
	}
	st.Abandon()

	st2, err := Open(dir, gen.Catalog(), Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	net2 := chord.New(chord.Config{})
	net2.AddNodes("peer", 4)
	eng2 := engine.New(net2, gen.Catalog(), engine.Config{Seed: 7})
	info, err := st2.Recover(eng2)
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if total := info.SnapshotLSN + uint64(info.Replayed); total != workers*perWorker {
		t.Errorf("recovered %d records (snapshot lsn %d + %d replayed), acked %d",
			total, info.SnapshotLSN, info.Replayed, workers*perWorker)
	}
}

// TestAppendFailStop: after a WAL write error the store must reject
// further appends and checkpoints instead of appending past partial
// frame bytes, and the state dir must still recover everything acked
// before the fault.
func TestAppendFailStop(t *testing.T) {
	gen := workload.New(workload.Params{Seed: 61})
	dir := t.TempDir()
	eng, st := buildStoreEngine(t, gen, dir, 4, -1)
	net := eng.Network()
	schema := gen.LeftSchema(0)
	zeros := make([]relation.Value, schema.Arity())
	for i := range zeros {
		zeros[i] = relation.N(0)
	}
	if _, err := st.Publish(net.NodeByKey("peer0"), relation.MustTuple(schema, zeros...)); err != nil {
		t.Fatalf("publish: %v", err)
	}
	// The log's cost per publication, pinned: one Publish appends one
	// frame, 12 bytes of framing around the LSN, the record tag, the node
	// key and the tuple with its attribute names, as Coder.NamedTuple
	// writes it (each zero two bytes). A record-codec or framing change that
	// grows the log has to change this number.
	const publishFrameBytes = 45
	if fi, err := os.Stat(filepath.Join(dir, walName)); err != nil {
		t.Fatal(err)
	} else if fi.Size() != publishFrameBytes {
		t.Errorf("wal.log holds %d bytes after one publish, want %d", fi.Size(), publishFrameBytes)
	}

	// Sever the descriptor so the next frame write fails.
	st.mu.Lock()
	st.f.Close()
	st.mu.Unlock()

	v := &wire.MemberView{Version: 2, Origin: "10.0.0.1:7570", Procs: []string{"10.0.0.1:7570"}}
	if err := st.LogView(v); err == nil {
		t.Fatal("append over a dead wal descriptor succeeded")
	}
	if err := st.LogView(v); !errors.Is(err, errFailed) {
		t.Fatalf("second append after a write error = %v, want fail-stop", err)
	}
	if err := st.Checkpoint(); !errors.Is(err, errFailed) {
		t.Fatalf("checkpoint on a failed store = %v, want fail-stop", err)
	}

	st2, err := Open(dir, gen.Catalog(), Options{})
	if err != nil {
		t.Fatalf("reopen after fail-stop: %v", err)
	}
	net2 := chord.New(chord.Config{})
	net2.AddNodes("peer", 4)
	eng2 := engine.New(net2, gen.Catalog(), engine.Config{Seed: 7})
	info, err := st2.Recover(eng2)
	if err != nil {
		t.Fatalf("recover after fail-stop: %v", err)
	}
	if info.SnapshotLSN+uint64(info.Replayed) != 1 {
		t.Errorf("recovered %d records, want the 1 acked before the fault", info.SnapshotLSN+uint64(info.Replayed))
	}
}
