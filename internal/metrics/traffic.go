// Package metrics implements the measurement apparatus of the paper's
// evaluation chapter: a network-traffic ledger counting overlay messages and
// hops per message kind, per-node filtering (TF) and storage (TS) load
// counters, and distribution statistics (sorted load curves, Gini
// coefficient, coefficient of variation, top-k shares) used to plot the
// load-balance figures.
//
// Since the observability PR, the ledger and the load counters are thin
// facades over internal/obs: every count lives in an obs.CounterVec /
// obs.Counter, so an experiment that shares its obs.Registry with the
// overlay sees the paper's metrics and the substrate's instrumentation in
// one snapshot, and the hot-path cost is an interned map read plus an
// atomic add instead of a mutex-guarded map write.
package metrics

import (
	"fmt"
	"sort"
	"strings"

	"cqjoin/internal/obs"
)

// Traffic is the network-traffic ledger. Every overlay hop performed by the
// routing layer is charged here under the kind of the message being routed
// (e.g. "al-index", "vl-index", "join", "notification"). The paper's traffic
// figures report exactly these counts: total overlay hops per inserted tuple.
//
// NewTraffic builds one; all methods are safe for concurrent use.
type Traffic struct {
	messages *obs.CounterVec
	hops     *obs.CounterVec
	bytes    *obs.CounterVec
	// Fault accounting (chaos runs): deliveries dropped in transit,
	// duplicate deliveries (injected or suppressed at the receiver),
	// deliveries held back by a delay fault, sender-side retries, and
	// messages lost for good after the retry budget ran out.
	drops   *obs.CounterVec
	dups    *obs.CounterVec
	delays  *obs.CounterVec
	retries *obs.CounterVec
	lost    *obs.CounterVec
}

// NewTraffic builds a ledger whose counter families live in reg under the
// "traffic.*" namespace, so one registry snapshot covers both the paper's
// ledger and the rest of the instrumentation. A nil reg allocates a
// private registry.
func NewTraffic(reg *obs.Registry) *Traffic {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &Traffic{
		messages: reg.CounterVec("traffic.msgs"),
		hops:     reg.CounterVec("traffic.hops"),
		bytes:    reg.CounterVec("traffic.bytes"),
		drops:    reg.CounterVec("traffic.drops"),
		dups:     reg.CounterVec("traffic.dups"),
		delays:   reg.CounterVec("traffic.delays"),
		retries:  reg.CounterVec("traffic.retries"),
		lost:     reg.CounterVec("traffic.lost"),
	}
}

// Record charges one message of the given kind that travelled the given
// number of overlay hops. A message delivered to the local node costs zero
// hops but is still counted as a message.
func (t *Traffic) Record(kind string, hops int) {
	t.messages.Add(kind, 1)
	t.hops.Add(kind, int64(hops))
}

// RecordDrop charges one delivery of the given kind lost in transit.
func (t *Traffic) RecordDrop(kind string) { t.drops.Add(kind, 1) }

// RecordDuplicate charges one duplicated delivery of the given kind.
func (t *Traffic) RecordDuplicate(kind string) { t.dups.Add(kind, 1) }

// RecordDelayed charges one delivery of the given kind held back in
// transit.
func (t *Traffic) RecordDelayed(kind string) { t.delays.Add(kind, 1) }

// RecordRetry charges one sender-side re-send of the given kind.
func (t *Traffic) RecordRetry(kind string) { t.retries.Add(kind, 1) }

// RecordLost charges one message of the given kind abandoned after the
// sender's retry budget was exhausted.
func (t *Traffic) RecordLost(kind string) { t.lost.Add(kind, 1) }

// Duplicates returns the duplicated deliveries recorded for kind.
func (t *Traffic) Duplicates(kind string) int64 { return t.dups.Value(kind) }

// Retries returns the sender-side re-sends recorded for kind.
func (t *Traffic) Retries(kind string) int64 { return t.retries.Value(kind) }

// TotalLost returns the abandoned messages across all kinds.
func (t *Traffic) TotalLost() int64 { return t.lost.Total() }

// TotalRetries returns the sender-side re-sends across all kinds.
func (t *Traffic) TotalRetries() int64 { return t.retries.Total() }

// AddBytes charges n wire bytes to the kind. The convention is bytes
// transferred over the physical network: a message of size s travelling h
// overlay hops is retransmitted h times and charges s*h bytes.
func (t *Traffic) AddBytes(kind string, n int) {
	t.bytes.Add(kind, int64(n))
}

// Bytes returns the wire bytes recorded for kind.
func (t *Traffic) Bytes(kind string) int64 { return t.bytes.Value(kind) }

// TotalBytes returns the wire bytes recorded across all kinds.
func (t *Traffic) TotalBytes() int64 { return t.bytes.Total() }

// RecordHopsOnly charges extra hops to an existing kind without counting a
// new message, used when a single logical message is forwarded further
// (multisend relaying).
func (t *Traffic) RecordHopsOnly(kind string, hops int) {
	t.hops.Add(kind, int64(hops))
}

// Messages returns the number of messages recorded for kind.
func (t *Traffic) Messages(kind string) int64 { return t.messages.Value(kind) }

// Hops returns the number of hops recorded for kind.
func (t *Traffic) Hops(kind string) int64 { return t.hops.Value(kind) }

// TotalMessages returns the number of messages recorded across all kinds.
func (t *Traffic) TotalMessages() int64 { return t.messages.Total() }

// TotalHops returns the number of overlay hops recorded across all kinds.
func (t *Traffic) TotalHops() int64 { return t.hops.Total() }

// Reset clears all of the ledger's counters (and only the ledger's — other
// metrics on a shared registry are untouched). Experiments reset the
// ledger after the warm-up phase so figures report steady-state traffic
// only.
func (t *Traffic) Reset() {
	t.messages.Reset()
	t.hops.Reset()
	t.bytes.Reset()
	t.drops.Reset()
	t.dups.Reset()
	t.delays.Reset()
	t.retries.Reset()
	t.lost.Reset()
}

// Snapshot returns a copy of the per-kind counters, for reporting.
func (t *Traffic) Snapshot() (messages, hops map[string]int64) {
	messages = t.messages.Snapshot()
	if messages == nil {
		messages = map[string]int64{}
	}
	hops = t.hops.Snapshot()
	if hops == nil {
		hops = map[string]int64{}
	}
	return messages, hops
}

// String renders a stable, human-readable summary ordered by kind.
func (t *Traffic) String() string {
	messages, hops := t.Snapshot()
	bytes := t.bytes.Snapshot()
	kinds := make([]string, 0, len(messages))
	for k := range messages {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b strings.Builder
	for _, k := range kinds {
		fmt.Fprintf(&b, "%-14s msgs=%-8d hops=%-8d bytes=%d\n", k, messages[k], hops[k], bytes[k])
	}
	fmt.Fprintf(&b, "%-14s msgs=%-8d hops=%-8d bytes=%d", "TOTAL",
		t.TotalMessages(), t.TotalHops(), t.TotalBytes())
	drops, dups := t.drops.Total(), t.dups.Total()
	delays, retries, lost := t.delays.Total(), t.retries.Total(), t.lost.Total()
	if drops+dups+delays+retries+lost > 0 {
		fmt.Fprintf(&b, "\n%-14s drops=%d dups=%d delays=%d retries=%d lost=%d",
			"FAULTS", drops, dups, delays, retries, lost)
	}
	return b.String()
}
