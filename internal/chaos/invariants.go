package chaos

import (
	"fmt"
	"sort"
	"strings"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/id"
)

// The three invariants every chaos run must restore once the injector is
// calmed and the overlay healed:
//
//  1. Ring integrity — successors, predecessors, successor lists and fingers
//     of every alive node again match the oracle view of the ring
//     (RingIntact).
//  2. No duplicate deliveries — no subscriber received the same match
//     twice (NoDuplicateDeliveries).
//  3. Completeness — the delivered set equals the centralized oracle's
//     expected set exactly (Complete).

// RingIntact checks every alive node's successor, predecessor, successor
// list and finger table against the oracle view of the current ring — all
// the state a routing step reads: the list must be the ring's next
// min(r, alive-1) nodes in order, with no gap. It returns nil when the
// overlay has fully converged, or an error naming the first few violations.
func RingIntact(net *chord.Network) error {
	nodes := net.Nodes() // ring order
	if len(nodes) == 0 {
		return fmt.Errorf("ring integrity: no alive nodes")
	}
	var bad []string
	report := func(format string, args ...interface{}) {
		if len(bad) < 8 {
			bad = append(bad, fmt.Sprintf(format, args...))
		}
	}
	for i, n := range nodes {
		next := nodes[(i+1)%len(nodes)]
		prev := nodes[(i-1+len(nodes))%len(nodes)]
		if got := n.Successor(); got != next {
			report("%s.successor = %v, want %v", n.Key(), got, next)
		}
		if got := n.Predecessor(); got != prev {
			report("%s.predecessor = %v, want %v", n.Key(), got, prev)
		}
		if len(nodes) > 1 {
			list := n.SuccessorList()
			if want := min(net.SuccessorListLen(), len(nodes)-1); len(list) != want {
				report("%s holds %d successors, want %d", n.Key(), len(list), want)
			}
			for j, got := range list {
				if want := nodes[(i+1+j)%len(nodes)]; got != want {
					report("%s.successors[%d] = %v, want %v", n.Key(), j, got, want)
				}
			}
		}
		for j := 1; j <= id.Bits; j++ {
			start := n.ID().AddPow2(uint(j - 1))
			if got, want := n.Finger(j), net.OracleSuccessor(start); got != want {
				report("%s.finger[%d] = %v, want %v", n.Key(), j, got, want)
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("ring integrity: %s", strings.Join(bad, "; "))
	}
	return nil
}

// deliveryIdentity is the full match identity of a delivered notification:
// subscriber, projected content, and the publication times of the matched
// tuple pair (distinct pairs can project to equal content).
func deliveryIdentity(n engine.Notification) string {
	return fmt.Sprintf("%s|%s|%d|%d", n.Subscriber, n.ContentKey(), n.LeftPubT, n.RightPubT)
}

// NoDuplicateDeliveries checks that no subscriber received the same match
// twice — the duplicate-avoidance invariant the engine's absorption layer
// must uphold even when the network duplicates and retries re-send.
func NoDuplicateDeliveries(ns []engine.Notification) error {
	count := make(map[string]int, len(ns))
	for _, n := range ns {
		count[deliveryIdentity(n)]++
	}
	var dups []string
	for k, c := range count {
		if c > 1 {
			dups = append(dups, fmt.Sprintf("%s x%d", k, c))
		}
	}
	if len(dups) > 0 {
		sort.Strings(dups)
		if len(dups) > 8 {
			dups = append(dups[:8], "...")
		}
		return fmt.Errorf("duplicate deliveries: %s", strings.Join(dups, "; "))
	}
	return nil
}

// Complete checks the delivered set against the centralized oracle at the
// content level (Notification.ContentKey), the identity under which all
// four algorithms must agree (Section 4.4): nothing missing (losses were
// retried or replayed) and nothing extra (duplicates and misroutes were
// absorbed). It also rejects a vacuous run in which the oracle expects no
// matches at all.
func Complete(o *engine.Oracle, ns []engine.Notification) error {
	want := o.ExpectedContentKeys()
	got := make(map[string]bool, len(ns))
	for _, n := range ns {
		got[n.ContentKey()] = true
	}
	return diffSets(want, got)
}

// PairComplete checks the delivered set at the full match identity —
// subscriber, content AND the publication times of the matched pair. Only
// DAI-Q and DAI-V promise this: every delivery carries its own trigger
// tuple. SAI and DAI-T group rewrites by content (RewriteKey), so a repeat
// trigger with an identical projection only adds time information to the
// stored rewrite (Section 4.3.3) and later matches report the first
// trigger's times.
func PairComplete(o *engine.Oracle, ns []engine.Notification) error {
	return diffSets(o.ExpectedDeliveries(), engine.DeliveryKeys(ns))
}

func diffSets(want, got map[string]bool) error {
	var missing, extra []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			extra = append(extra, k)
		}
	}
	if len(missing) > 0 || len(extra) > 0 {
		sort.Strings(missing)
		sort.Strings(extra)
		return fmt.Errorf("differential mismatch vs oracle: missing %d %v, extra %d %v",
			len(missing), trim(missing), len(extra), trim(extra))
	}
	if len(want) == 0 {
		return fmt.Errorf("oracle expects no matches: run is vacuous")
	}
	return nil
}

func trim(s []string) []string {
	if len(s) > 6 {
		return append(s[:6:6], "...")
	}
	return s
}
