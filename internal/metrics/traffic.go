// Package metrics implements the measurement apparatus of the paper's
// evaluation chapter: a network-traffic ledger counting overlay messages and
// hops per message kind, per-node filtering (TF) and storage (TS) load
// counters, and distribution statistics (Gini coefficient, coefficient of
// variation, top-k shares) used to plot the load-balance figures.
//
// The ledger and the load counters are thin facades over internal/obs:
// every count lives in an obs.CounterVec / obs.Counter, so a record is an
// atomic load, a read of an immutable map and an atomic add, with no lock;
// only a kind's first record copies its family's map.
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
	// Fault accounting (chaos runs): duplicate deliveries (injected or
	// suppressed at the receiver), sender-side retries, and messages lost
	// for good after the retry budget ran out.
	dups    *obs.CounterVec
	retries *obs.CounterVec
	lost    *obs.CounterVec
}

// NewTraffic builds an empty ledger, its counter families on a registry of
// its own.
func NewTraffic() *Traffic {
	reg := obs.NewRegistry()
	return &Traffic{
		messages: reg.CounterVec("traffic.msgs"),
		hops:     reg.CounterVec("traffic.hops"),
		bytes:    reg.CounterVec("traffic.bytes"),
		dups:     reg.CounterVec("traffic.dups"),
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

// RecordDuplicate charges one duplicated delivery of the given kind.
func (t *Traffic) RecordDuplicate(kind string) { t.dups.Add(kind, 1) }

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
	t.dups.Reset()
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
	dups, retries, lost := t.dups.Total(), t.retries.Total(), t.lost.Total()
	if dups+retries+lost > 0 {
		fmt.Fprintf(&b, "\n%-14s dups=%d retries=%d lost=%d", "FAULTS", dups, retries, lost)
	}
	return b.String()
}
