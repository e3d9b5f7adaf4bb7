package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a set of named measurements in the order they were taken.
type metrics struct {
	names  []string
	byName map[string]metric
}

func newMetrics() *metrics { return &metrics{byName: make(map[string]metric)} }

func (m *metrics) set(name string, value float64, unit string) {
	if _, ok := m.byName[name]; !ok {
		m.names = append(m.names, name)
	}
	m.byName[name] = metric{value, unit}
}

// result is one workload run as reported.
type result struct {
	workload string
	endToEnd *metrics
	// timing holds what a client feels: throughput and latencies. It is
	// printed on every run but belongs to the per-layer set in
	// BENCHMARK.json, because on a shared host identical runs differ by more
	// than the widest bound the driver admits (see ../README.md).
	timing    *metrics
	perLayer  *metrics // nil unless traced; includes timing
	attempted int
	failed    int
	verdict   verdict
	opErr     error // first failed op, if any
	phases    map[string]time.Duration
	calib     [2]float64 // machine speed before and after the measured phases
	disturbed bool       // it moved by more than 10%
	invalid   string     // why the run must not be compared with others, if so
	traceFile string
}

// snapshot is every cumulative count the benchmark reads from the system's
// public ledgers.
type snapshot struct {
	total     ledger
	hops      map[string]int64 // by kind group
	msgs      map[string]int64
	transport map[string]float64 // summed over daemons; nil on sim
	disk      int64
}

func (r *run) snapshot() (snapshot, error) {
	s := snapshot{hops: make(map[string]int64), msgs: make(map[string]int64), disk: diskWriteBytes()}
	for _, c := range r.tgt.clusters() {
		msgs, hops := c.Traffic().Snapshot()
		for k, n := range msgs {
			s.msgs[kindGroup(k)] += n
		}
		for k, n := range hops {
			s.hops[kindGroup(k)] += n
		}
	}
	t, ok := r.tgt.(*tcpTarget)
	if !ok {
		var err error
		s.total, err = r.tgt.ledger()
		return s, err
	}
	// One stats call per daemon serves both the totals and the transport
	// registry: each call copies the daemon's whole notification slice.
	s.transport = make(map[string]float64)
	for d := range t.servers {
		st, err := t.stats(d)
		if err != nil {
			return s, err
		}
		s.total.hops += st.Hops
		s.total.bytes += st.Bytes
		for k, v := range st.Transport {
			s.transport[k] += v
		}
	}
	return s, nil
}

// pubsIn counts the publications among ops [lo, hi).
func (st *stream) pubsIn(lo, hi int) int {
	n := 0
	for _, o := range st.ops[lo:hi] {
		if o.kind == opPublish {
			n++
		}
	}
	return n
}

// measure runs one workload end to end.
func measure(s spec, seed int64, seconds int, trace bool, outDir string) (*result, error) {
	cnt := s.countsFor(seconds, trace)
	if trace && cnt.traced < 2 {
		return nil, fmt.Errorf("%d seconds leave %d ops for the traced pass: too few to time", seconds, cnt.traced)
	}
	st := generate(s, seed, cnt.total())
	in, err := materialize(st)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	r := &run{st: st, in: in, cnt: cnt, clients: clientCount(), outDir: outDir}
	res := &result{workload: s.name, endToEnd: newMetrics(), timing: newMetrics(), phases: make(map[string]time.Duration)}
	e, t := res.endToEnd, res.timing

	setups := make([]time.Duration, 0, 3)
	setup, build, err := r.setup()
	if err != nil {
		r.teardown()
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.teardown()
	setups = append(setups, setup)
	res.phases["setup"] = setup

	calibBefore := calibrate()
	before, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	pacedLo, satLo, satHi := cnt.warmup, cnt.warmup+cnt.paced, cnt.warmup+cnt.paced+cnt.sat
	// Each measured phase starts from a collected heap. The live heap is
	// hundreds of megabytes, so a phase contains only a few collections,
	// each of which takes one of two cores for a good part of a second;
	// starting every phase at the same point of the collector's cycle makes
	// their number, and where in the phase they fall, a property of the
	// workload and not of the moment set-up happened to finish.
	runtime.GC()
	pacedWall, late := r.openLoop(pacedLo, satLo, float64(s.pacedRate))
	res.phases["paced"] = pacedWall

	var memBefore, memAfter runtime.MemStats
	midway, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	cpuBefore := cpuTime()
	satWall := r.closedLoop(satLo, satHi, r.clients)
	cpuSat := cpuTime() - cpuBefore
	runtime.ReadMemStats(&memAfter)
	res.phases["sat"] = satWall
	r.quiesce(100*time.Millisecond, 5*time.Second)
	after, err := r.snapshot()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)
	calibAfter := calibrate()
	res.calib = [2]float64{calibBefore, calibAfter}
	if d := calibAfter/calibBefore - 1; d > 0.1 || d < -0.1 {
		res.disturbed = true
	}

	satPubs := float64(st.pubsIn(satLo, satHi))
	bothPubs := float64(st.pubsIn(pacedLo, satHi))
	cost := after.total.sub(before.total)
	lat := r.latencies()
	achieved := float64(cnt.paced) / pacedWall.Seconds() / float64(s.pacedRate)
	if achieved < 0.98 {
		res.invalid = fmt.Sprintf("paced phase achieved %.3f of its rate", achieved)
	}

	e.set("setup_s", setup.Seconds(), "s") // replaced by the median of three below
	t.set("client.pubs_per_s", satPubs/satWall.Seconds(), "1/s")
	t.set("client.ack_p50_ms", ms(exactQuantile(lat.ackSat, 0.5)), "ms")
	t.set("client.notify_p50_ms", ms(exactQuantile(lat.notifyPaced, 0.5)), "ms")
	t.set("client.cpu_us_per_pub", float64(cpuSat.Microseconds())/satPubs, "us")
	e.set("hops_per_pub", float64(cost.hops)/bothPubs, "count")
	e.set("wire_kb_per_pub", float64(cost.bytes)/bothPubs/1024, "kB")
	e.set("allocs_per_pub", float64(memAfter.Mallocs-memBefore.Mallocs)/satPubs, "count")
	e.set("alloc_kb_per_pub", float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/satPubs/1024, "kB")
	e.set("live_heap_mb", float64(live.HeapAlloc)/(1<<20), "MB")

	if trace {
		l := newMetrics()
		res.perLayer = l
		for _, name := range t.names {
			l.set(name, t.byName[name].Value, t.byName[name].Unit)
		}
		l.set("client.notifs_per_pub", float64(lat.notifsMeasured)/bothPubs, "count")
		l.set("client.notify_sat_p50_ms", ms(exactQuantile(lat.notifySat, 0.5)), "ms")
		l.set("client.ack_p99_ms", ms(exactQuantile(lat.ackSat, 0.99)), "ms")
		l.set("client.notify_p99_ms", ms(exactQuantile(lat.notifyPaced, 0.99)), "ms")
		l.set("client.gen_late_p50_ms", ms(exactQuantile(late, 0.5)), "ms")
		l.set("client.paced_achieved_ratio", achieved, "ratio")
		l.set("client.calib_mhash_per_s", calibBefore, "1/us")
		l.set("client.calib_after_mhash_per_s", calibAfter, "1/us")
		l.set("chord.build_ms", ms(build.Nanoseconds()), "ms")
		for _, k := range kinds {
			l.set("chord.hops_per_pub."+k, float64(after.hops[k]-before.hops[k])/bothPubs, "count")
			l.set("chord.msgs_per_pub."+k, float64(after.msgs[k]-before.msgs[k])/bothPubs, "count")
		}
		l.set("durable.disk_kb_per_pub", float64(after.disk-midway.disk)/satPubs/1024, "kB")
		if err := r.tracedPasses(res, before, after); err != nil {
			return nil, err
		}
		res.traceFile = filepath.Join(outDir, s.name+".trace.json")
		if err := r.tracer.writeFile(res.traceFile); err != nil {
			return nil, err
		}
	}

	// Every op is judged, warm-up included: a set-up that loses
	// notifications is as wrong as a measured phase that does.
	r.quiesce(100*time.Millisecond, 5*time.Second)
	res.verdict = judge(st, r.times, r.received())
	res.attempted = len(st.ops)
	res.failed = r.opErrs + len(res.verdict.failedPubs)
	res.opErr = r.firstErr()

	if trace {
		if err := r.probes(res.perLayer); err != nil {
			return nil, err
		}
		return res, nil
	}

	// Set-up is short next to the measured phases, so one sample of it is a
	// coin flip: repeat it twice more on the same stream and report the
	// median. The repeats come last so their garbage cannot touch the
	// measured phases.
	r.teardown()
	for len(setups) < 3 {
		again := &run{st: st, in: in, cnt: cnt, clients: r.clients, outDir: outDir}
		runtime.GC() // every repeat starts from a collected heap
		d, _, err := again.setup()
		again.teardown()
		if err != nil {
			return nil, fmt.Errorf("repeated set-up: %w", err)
		}
		setups = append(setups, d)
	}
	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	e.set("setup_s", setups[1].Seconds(), "s")
	return res, nil
}

// cpuTime is the processor time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // the metric then reads 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// teardown closes the target and removes the run's state directories. It
// may be called more than once.
func (r *run) teardown() {
	if r.tgt != nil {
		if err := r.tgt.close(); err != nil {
			fmt.Fprintln(os.Stderr, "cqbench: closing the target:", err)
		}
		r.tgt = nil
	}
	if r.stateDir != "" {
		_ = os.RemoveAll(r.stateDir)
	}
}

// latencySamples are the client-side timings of the two measured phases.
type latencySamples struct {
	ackSat         []int64 // publish round trips of the closed-loop phase
	notifyPaced    []int64 // stamp of the later publication -> receipt, open-loop phase
	notifySat      []int64 // the same for the closed-loop phase
	notifsMeasured int     // notifications attributed to either measured phase
}

func (r *run) latencies() latencySamples {
	pacedLo := r.cnt.warmup
	satLo, satHi := pacedLo+r.cnt.paced, pacedLo+r.cnt.paced+r.cnt.sat
	l := latencySamples{ackSat: r.acks(satLo, satHi)}
	r.sink.mu.Lock()
	defer r.sink.mu.Unlock()
	for _, n := range r.sink.recs {
		later := int(max(n.r, n.s))
		switch {
		case later < pacedLo || later >= satHi:
			continue
		case later < satLo:
			l.notifyPaced = append(l.notifyPaced, n.at-r.stamp[later])
		default:
			l.notifySat = append(l.notifySat, n.at-r.stamp[later])
		}
		l.notifsMeasured++
	}
	return l
}

// received folds the collected notifications into a multiset keyed by
// stream query index. A notification whose query key the system never
// handed out keeps query -1 and so can only be judged unexpected.
func (r *run) received() map[triple]int {
	keys := r.tgt.queryKeys()
	r.sink.mu.Lock()
	defer r.sink.mu.Unlock()
	got := make(map[triple]int, len(r.sink.recs))
	for _, n := range r.sink.recs {
		q, ok := keys[n.key]
		if !ok {
			q = -1
		}
		got[triple{int32(q), n.r, n.s}]++
	}
	return got
}
