package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// small shrinks a workload to a few hundred ops on the smoke ports, which
// differ from the full run's so a test never collides with a benchmark run
// on the same machine.
func small(s spec) spec {
	s.warmup /= 10
	s.ports = smokePorts
	return s
}

// execute sets a run up and plays ops [0, n) with one client, optionally
// with the trace decorators installed from the first op on.
func execute(t *testing.T, s spec, seed int64, n int, traced bool) (*run, ledger) {
	t.Helper()
	st := generate(s, seed, n)
	in, err := materialize(st)
	if err != nil {
		t.Fatal(err)
	}
	r := &run{st: st, in: in, clients: 1, outDir: t.TempDir()}
	t.Cleanup(r.teardown)
	if _, _, err := r.setup(); err != nil {
		t.Fatal(err)
	}
	if traced {
		r.startTracing()
	}
	r.closedLoop(0, n, 1)
	if err := r.firstErr(); err != nil {
		t.Fatal(err)
	}
	cost, err := r.tgt.ledger()
	if err != nil {
		t.Fatal(err)
	}
	return r, cost
}

func TestOracleCountsDroppedAndDuplicated(t *testing.T) {
	s, _ := specByName("sim-steady")
	s.nodes = 128
	r, _ := execute(t, s, 1, 2000, false)
	got := r.received()
	if v := judge(r.st, r.times, got); v.expected == 0 || len(v.failedPubs) != 0 {
		t.Fatalf("clean run: expected=%d failures=%v", v.expected, v.failedPubs)
	}
	// Drop one notification and duplicate another, of different
	// publications.
	triples := make([]triple, 0, len(got))
	for tr := range got {
		triples = append(triples, tr)
	}
	sort.Slice(triples, func(i, j int) bool { return max(triples[i].r, triples[i].s) < max(triples[j].r, triples[j].s) })
	dropped, doubled := triples[0], triples[len(triples)-1]
	delete(got, dropped)
	got[doubled]++
	v := judge(r.st, r.times, got)
	if v.missing != 1 || v.duplicate != 1 || v.unexpected != 0 {
		t.Errorf("missing=%d duplicate=%d unexpected=%d, want 1 1 0", v.missing, v.duplicate, v.unexpected)
	}
	want := map[int32]struct{}{max(dropped.r, dropped.s): {}, max(doubled.r, doubled.s): {}}
	if len(v.failedPubs) != 2 {
		t.Errorf("failed publications %v, want %v", v.failedPubs, want)
	}
	for p := range want {
		if _, ok := v.failedPubs[p]; !ok {
			t.Errorf("publication %d not reported as failed", p)
		}
	}
	// A notification nothing could have produced.
	got[triple{0, 1, 1}]++
	if v := judge(r.st, r.times, got); v.unexpected != 1 {
		t.Errorf("unexpected=%d, want 1", v.unexpected)
	}
}

// serialTimes are the op times of a client that issues op i+1 after op i
// is acknowledged.
func serialTimes(n int) []opTimes {
	times := make([]opTimes, n)
	for i := range times {
		times[i] = opTimes{int64(2*i + 1), int64(2*i + 2)}
	}
	return times
}

func TestGeneratorIsAFunctionOfTheSeed(t *testing.T) {
	for _, s := range specs {
		const n = 20000
		var a, b, c bytes.Buffer
		for seed, buf := range map[int64]*bytes.Buffer{1: &a, 2: &c} {
			if err := generate(s, seed, n).encode(buf); err != nil {
				t.Fatal(err)
			}
		}
		if err := generate(s, 1, n).encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: the same seed gave two different streams", s.name)
		}
		if bytes.Equal(a.Bytes(), c.Bytes()) {
			t.Errorf("%s: two seeds gave the same stream", s.name)
		}
		// Notifications per publication are a property of the workload, not
		// of the seed.
		perPub := func(seed int64) float64 {
			st := generate(s, seed, n)
			v := judge(st, serialTimes(n), nil)
			return float64(v.expected) / float64(st.pubsIn(0, n))
		}
		if p1, p2 := perPub(1), perPub(2); math.Abs(p1/p2-1) > 0.05 {
			t.Errorf("%s: %.3f notifications per publication on seed 1, %.3f on seed 2", s.name, p1, p2)
		}
	}
}

func TestSameSeedSameCost(t *testing.T) {
	s, _ := specByName("sim-steady")
	s.nodes = 256
	r1, cost1 := execute(t, s, 7, 2000, false)
	r2, cost2 := execute(t, s, 7, 2000, false)
	if cost1 != cost2 {
		t.Errorf("overlay cost %+v then %+v on the same seed", cost1, cost2)
	}
	if n1, n2 := r1.sink.len(), r2.sink.len(); n1 != n2 || n1 == 0 {
		t.Errorf("%d notifications then %d on the same seed", n1, n2)
	}
}

// TestDecoratorsAreTransparent plays sim-steady's first 2000 ops with and
// without the trace decorators and requires the same notifications and the
// same overlay cost.
func TestDecoratorsAreTransparent(t *testing.T) {
	s, _ := specByName("sim-steady")
	plain, plainCost := execute(t, s, 1, 2000, false)
	traced, tracedCost := execute(t, s, 1, 2000, true)
	if plainCost != tracedCost {
		t.Errorf("overlay cost %+v untraced, %+v traced", plainCost, tracedCost)
	}
	a, b := plain.received(), traced.received()
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("%d distinct notifications untraced, %d traced", len(a), len(b))
	}
	for tr, n := range a {
		if b[tr] != n {
			t.Errorf("notification %+v: %d untraced, %d traced", tr, n, b[tr])
		}
	}
	if lt := traced.tracer.analyse(); lt.calls[spanHandlePfx+"al-index"] == 0 || lt.misnested != 0 {
		t.Errorf("traced pass: calls %v, %d misnested spans", lt.calls, lt.misnested)
	}
}

// TestSmokeEveryWorkload runs each workload for one nominal second with the
// traced pass and the probes, and checks the run against BENCHMARK.json:
// the file and the program must name the same workloads and metrics.
func TestSmokeEveryWorkload(t *testing.T) {
	var manifest struct {
		Workloads []struct{ Name, Why string }  `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	// BENCHMARK.json lists the workloads the driver gates on: every one the
	// program has except the durable one, whose timings follow the host's
	// disk (see workloads.go).
	listed := make(map[string]string)
	for _, w := range manifest.Workloads {
		listed[w.Name] = w.Why
	}
	for _, s := range specs {
		why, ok := listed[s.name]
		if ok == s.durable {
			t.Errorf("%s: listed in BENCHMARK.json = %v, durable = %v", s.name, ok, s.durable)
		}
		if ok && why != s.why {
			t.Errorf("%s: BENCHMARK.json says %q, the program %q", s.name, why, s.why)
		}
		delete(listed, s.name)
	}
	for name := range listed {
		t.Errorf("BENCHMARK.json lists %s, which the program does not have", name)
	}
	sameNames := func(kind string, want []struct{ Name, Unit string }, got *metrics) {
		t.Helper()
		if len(want) != len(got.names) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the run printed %d", kind, len(want), len(got.names))
		}
		for _, w := range want {
			if m, ok := got.byName[w.Name]; !ok {
				t.Errorf("%s: %s is in BENCHMARK.json but was not printed", kind, w.Name)
			} else if m.Unit != w.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q in the run", kind, w.Name, w.Unit, m.Unit)
			}
		}
	}
	for _, s := range specs {
		t.Run(s.name, func(t *testing.T) {
			res, err := measure(small(s), 1, 1, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if res.failed != 0 || res.verdict.expected == 0 {
				t.Errorf("%d of %d ops failed (first: %v), %d notifications expected", res.failed, res.attempted, res.opErr, res.verdict.expected)
			}
			sameNames("end_to_end", manifest.EndToEnd, res.endToEnd)
			sameNames("per_layer", manifest.PerLayer, res.perLayer)
			l := res.perLayer.byName
			if s.tcp {
				if l["transport.retries"].Value != 0 || l["transport.rpc_failures"].Value != 0 {
					t.Errorf("transport retried or failed: %+v", l)
				}
				if l["transport.deliver_self_us_per_pub"].Value <= 0 || l["codec.enc_ns_per_msg.join"].Value <= 0 {
					t.Error("no transport or codec time on a TCP workload")
				}
			} else if l["transport.deliver_self_us_per_pub"].Value != 0 || l["codec.enc_ns_per_msg.join"].Value != 0 {
				t.Error("transport or codec time on an in-process workload")
			}
			if hot := l["engine.hot_keys"].Value + l["chord.msgs_per_pub.hot"].Value; (hot > 0) != (s.hotThreshold > 0) {
				t.Errorf("hot-key activity %v with threshold %d", hot, s.hotThreshold)
			}
			if (l["durable.recover_ms"].Value > 0) != s.durable {
				t.Errorf("durable.recover_ms = %v on durable=%v", l["durable.recover_ms"].Value, s.durable)
			}
			if _, err := os.Stat(res.traceFile); err != nil {
				t.Errorf("span file: %v", err)
			}
		})
	}
}
