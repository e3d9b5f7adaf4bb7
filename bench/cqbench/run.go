package main

import (
	"crypto/sha1"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// notif is one notification as a listener received it.
type notif struct {
	key  string // the system's key of the query that fired
	r, s int32  // Id of the R and of the S tuple
	at   int64  // receipt, ns since the epoch
}

// collector gathers notifications from every listener of a run. Its epoch
// is the zero of every timestamp the run takes.
type collector struct {
	epoch time.Time
	mu    sync.Mutex
	recs  []notif
}

func newCollector(capacity int) *collector {
	return &collector{epoch: time.Now(), recs: make([]notif, 0, capacity)}
}

func (c *collector) now() int64 { return int64(time.Since(c.epoch)) }

func (c *collector) add(key string, r, s int32, at int64) {
	c.mu.Lock()
	c.recs = append(c.recs, notif{key, r, s, at})
	c.mu.Unlock()
}

func (c *collector) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.recs)
}

// A run executes one stream against one target and keeps what the client
// observed of every op.
type run struct {
	st      *stream
	in      *inputs
	cnt     counts
	clients int
	outDir  string // scratch space: state directories, trace files

	tgt      target
	stateDir string // durable workloads: parent of the daemons' state directories
	sink     *collector
	tracer   *tracer // nil until the traced pass starts

	standingSubNs []int64 // durations of the set-up's subscribe calls

	times []opTimes // by op id
	stamp []int64   // by op id: the instant latency is measured from

	errMu  sync.Mutex
	opErrs int   // ops the system refused
	errOne error // the first of them, for the report
}

func clientCount() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// setup builds the system, subscribes the standing queries and publishes
// the warm-up ops from one client. Its duration is the setup_s metric.
func (r *run) setup() (time.Duration, time.Duration, error) {
	r.sink = newCollector(len(r.st.ops) * 4)
	r.times = make([]opTimes, len(r.st.ops))
	r.stamp = make([]int64, len(r.st.ops))
	start := time.Now()
	var build time.Duration
	if r.st.spec.tcp {
		if r.st.spec.durable {
			r.stateDir = filepath.Join(r.outDir, fmt.Sprintf("state-%d", os.Getpid()))
		}
		t, err := newTCPTarget(r.st, r.in, r.sink, r.clients, r.stateDir)
		if err != nil {
			return 0, 0, err
		}
		r.tgt, build = t, time.Since(start)
	} else {
		t, b, err := newSimTarget(r.st, r.in, r.sink)
		if err != nil {
			return 0, 0, err
		}
		r.tgt, build = t, b
	}
	for q := 0; q < r.st.standing; q++ {
		sent := time.Now()
		if err := r.tgt.subscribe(0, q); err != nil {
			return 0, 0, fmt.Errorf("subscribe query %d: %w", q, err)
		}
		r.standingSubNs = append(r.standingSubNs, time.Since(sent).Nanoseconds())
	}
	if t, ok := r.tgt.(*tcpTarget); ok {
		if err := t.prime(r.st.standing + 1); err != nil {
			return 0, 0, err
		}
	}
	r.closedLoop(0, r.cnt.warmup, 1)
	return time.Since(start), build, r.firstErr()
}

// acks returns the round trips of the acknowledged publications among ops
// [lo, hi).
func (r *run) acks(lo, hi int) []int64 {
	var acks []int64
	for i := lo; i < hi; i++ {
		if t := r.times[i]; r.st.ops[i].kind == opPublish && t.ack != 0 {
			acks = append(acks, t.ack-t.send)
		}
	}
	return acks
}

func (r *run) firstErr() error {
	r.errMu.Lock()
	defer r.errMu.Unlock()
	return r.errOne
}

// exec performs op id as client c and records when it was sent and
// acknowledged. A failed op keeps a zero ack.
func (r *run) exec(c, id int) {
	o := r.st.ops[id]
	var err error
	send := r.sink.now()
	switch o.kind {
	case opSubscribe:
		err = r.tgt.subscribe(c, int(o.query))
	case opUnsubscribe:
		err = r.tgt.unsubscribe(c, int(o.query))
	default:
		err = r.tgt.publish(c, id)
	}
	ack := r.sink.now()
	if err != nil {
		r.errMu.Lock()
		r.opErrs++
		if r.errOne == nil {
			r.errOne = fmt.Errorf("op %d: %w", id, err)
		}
		r.errMu.Unlock()
		ack = 0
	}
	r.times[id] = opTimes{send, ack}
	if r.stamp[id] == 0 {
		r.stamp[id] = send
	}
	if r.tracer != nil && err == nil {
		r.tracer.record(rootSpanNames[o.kind], send, ack)
	}
}

// closedLoop runs ops [lo, hi) with clients callers that each issue their
// next op as soon as the previous one is acknowledged, and returns the wall
// time taken.
func (r *run) closedLoop(lo, hi, clients int) time.Duration {
	var next atomic.Int64
	next.Store(int64(lo))
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				id := int(next.Add(1)) - 1
				if id >= hi {
					return
				}
				r.exec(c, id)
			}
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// openLoop runs ops [lo, hi) on a schedule of rate ops per second that does
// not depend on the system: one pacer emits every op that is due into a
// queue that holds the whole phase, stamping it with the instant of
// emission, and the clients drain the queue. Latency is measured from the
// stamp, so time an op spends queued behind a stall counts, while the
// pacer's own oversleep does not; it is returned as each op's lateness,
// emission minus schedule.
func (r *run) openLoop(lo, hi int, rate float64) (wall time.Duration, late []int64) {
	queue := make(chan int, hi-lo) // the whole phase fits: the pacer never blocks
	late = make([]int64, 0, hi-lo)
	var wg sync.WaitGroup
	for c := 0; c < r.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for id := range queue {
				r.exec(c, id)
			}
		}(c)
	}
	start := time.Now()
	gap := float64(time.Second) / rate
	for next := lo; next < hi; {
		elapsed := time.Since(start)
		due := lo + int(float64(elapsed)/gap) + 1
		if due > hi {
			due = hi
		}
		now := r.sink.now()
		for ; next < due; next++ {
			r.stamp[next] = now
			late = append(late, int64(elapsed)-int64(float64(next-lo)*gap))
			queue <- next
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(queue)
	wg.Wait()
	return time.Since(start), late
}

// quiesce waits until the listeners have been silent for quiet, or gives up
// after patience. Notifications are written to the listen sockets before
// the publication that caused them is acknowledged, so only socket and
// parsing latency is left to wait out.
func (r *run) quiesce(quiet, patience time.Duration) {
	deadline := time.Now().Add(patience)
	for seen := -1; time.Now().Before(deadline); {
		n := r.sink.len()
		if n == seen {
			return
		}
		seen = n
		time.Sleep(quiet)
	}
}

// calibrate hashes for 200 ms and returns millions of chained SHA-1 blocks
// per second: a figure that depends on the machine alone, taken before and
// after the measured phases to tell a disturbed run from a slow program.
// It is the best of ten 20 ms slices, so that the runtime's own background
// work right after a phase does not read as a slower machine. Results are
// never normalised by it.
func calibrate() float64 {
	var block [64]byte
	best := 0.0
	for slice := 0; slice < 10; slice++ {
		n := 0
		start := time.Now()
		for time.Since(start) < 20*time.Millisecond {
			for i := 0; i < 1000; i++ {
				sum := sha1.Sum(block[:])
				copy(block[:], sum[:])
			}
			n += 1000
		}
		best = max(best, float64(n)/time.Since(start).Seconds()/1e6)
	}
	return best
}

// exactQuantile returns the q-quantile of samples (sorted in place) as an
// observed value, never an interpolated or bucketed one.
func exactQuantile(samples []int64, q float64) int64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return samples[int(q*float64(len(samples)-1))]
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
