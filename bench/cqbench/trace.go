package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
)

// The traced pass records a span at every public seam a publication
// crosses: the client call, chord.Transport and each node's chord.Handler.
// All spans come from decorators in this file; nothing inside the program
// is instrumented. With one closed-loop client at most one op is in flight,
// so a span's parent is simply the tightest span that contains it in time,
// across both daemons.

var rootSpanNames = [...]string{
	opPublish:     "client.publish",
	opSubscribe:   "client.subscribe",
	opUnsubscribe: "client.unsubscribe",
}

const (
	spanDeliver    = "transport.deliver"
	spanHandlePfx  = "engine.handle."
	maxCodecSample = 2000 // messages kept per kind for the codec probe
)

// kinds are the message classes the per-kind metrics are reported for; the
// hot-key layer's five frame types count as one.
var kinds = [...]string{"al-index", "vl-index", "join", "notification", "query", "hot"}

func kindGroup(kind string) string {
	if strings.HasPrefix(kind, "hot-") {
		return "hot"
	}
	return kind
}

type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Op     int    `json:"op"`     // index of the root span this one belongs to
}

type tracer struct {
	clock *collector

	mu    sync.Mutex
	spans []span
	// Delivery counts and message samples, taken at the transport seam.
	local, remote int64
	samples       map[string][]chord.Message // by kind group; remote deliveries only
}

func newTracer(clock *collector) *tracer {
	return &tracer{clock: clock, samples: make(map[string][]chord.Message)}
}

func (t *tracer) record(name string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, Parent: -1, Op: -1})
	t.mu.Unlock()
}

// tracedHandler times a node's message handler. It forwards
// chord.KeyTransferrer, which chord discovers by type assertion on the
// installed handler, so ring changes still move the engine's state.
type tracedHandler struct {
	inner chord.Handler
	tr    *tracer
}

func (h tracedHandler) HandleMessage(on *chord.Node, msg chord.Message) {
	start := h.tr.clock.now()
	h.inner.HandleMessage(on, msg)
	h.tr.record(spanHandlePfx+kindGroup(msg.Kind()), start, h.tr.clock.now())
}

func (h tracedHandler) TransferKeys(from, to *chord.Node, lo, hi id.ID) {
	if kt, ok := h.inner.(chord.KeyTransferrer); ok {
		kt.TransferKeys(from, to, lo, hi)
	}
}

// tracedTransport times deliveries of one daemon's overlay and samples the
// messages that leave the process.
type tracedTransport struct {
	inner    chord.Transport
	tr       *tracer
	isRemote func(dst *chord.Node) bool
}

func (t *tracedTransport) note(dst *chord.Node, msgs ...chord.Message) {
	tr := t.tr
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if !t.isRemote(dst) {
		tr.local += int64(len(msgs))
		return
	}
	tr.remote += int64(len(msgs))
	for _, m := range msgs {
		g := kindGroup(m.Kind())
		if len(tr.samples[g]) < maxCodecSample {
			tr.samples[g] = append(tr.samples[g], m)
		}
	}
}

func (t *tracedTransport) Deliver(from, dst *chord.Node, msg chord.Message) bool {
	t.note(dst, msg)
	start := t.tr.clock.now()
	ok := t.inner.Deliver(from, dst, msg)
	t.tr.record(spanDeliver, start, t.tr.clock.now())
	return ok
}

func (t *tracedTransport) DeliverBatch(from, dst *chord.Node, msgs []chord.Message) []bool {
	t.note(dst, msgs...)
	start := t.tr.clock.now()
	acks := t.inner.DeliverBatch(from, dst, msgs)
	t.tr.record(spanDeliver, start, t.tr.clock.now())
	return acks
}

// install decorates every node's handler of every cluster and, on a TCP
// target, each daemon's transport. Call it only while no op is in flight.
func (t *tracer) install(tgt target) {
	tcp, _ := tgt.(*tcpTarget)
	for d, c := range tgt.clusters() {
		net := c.Overlay()
		for _, n := range net.Nodes() {
			n.SetHandler(tracedHandler{inner: n.Handler(), tr: t})
		}
		if tcp == nil {
			continue // the simulated transport is a function call: there is no transport layer to time
		}
		mine := make(map[string]bool, len(tcp.owner))
		for pos, owner := range tcp.owner {
			mine[c.Node(pos).Key()] = owner == d
		}
		net.SetTransport(&tracedTransport{inner: net.Transport(), tr: t,
			isRemote: func(dst *chord.Node) bool { return !mine[dst.Key()] }})
	}
}

// layerTimes is what the traced pass says about where time went.
type layerTimes struct {
	rootNs    int64            // sum of the client spans' durations
	selfNs    map[string]int64 // by span name: duration not covered by child spans
	calls     map[string]int64 // by span name
	misnested int              // spans outside any client span or straddling their parent's end
}

// analyse assigns parents by time containment and computes self times. It
// rewrites t.spans in start order with Parent and Op filled in.
func (t *tracer) analyse() layerTimes {
	sp := t.spans
	sort.SliceStable(sp, func(i, j int) bool {
		if sp[i].Start != sp[j].Start {
			return sp[i].Start < sp[j].Start
		}
		return sp[i].End > sp[j].End
	})
	lt := layerTimes{selfNs: make(map[string]int64), calls: make(map[string]int64)}
	covered := make([]int64, len(sp)) // time of each span covered by its children
	var stack []int
	for i := range sp {
		for len(stack) > 0 && sp[stack[len(stack)-1]].End <= sp[i].Start {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			if sp[i].End > sp[p].End {
				lt.misnested++
				sp[i].End = sp[p].End // charge the parent only for what it contains
			}
			sp[i].Parent, sp[i].Op = p, sp[p].Op
			covered[p] += sp[i].End - sp[i].Start
		} else {
			sp[i].Op = i
			if strings.HasPrefix(sp[i].Name, "client.") {
				lt.rootNs += sp[i].End - sp[i].Start
			} else {
				lt.misnested++
			}
		}
		stack = append(stack, i)
	}
	for i, s := range sp {
		lt.selfNs[s.Name] += s.End - s.Start - covered[i]
		lt.calls[s.Name]++
	}
	return lt
}

func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}
