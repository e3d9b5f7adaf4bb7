package engine

import (
	"cqjoin/internal/chord"
)

// This file adds bounded sender-side retries on top of the overlay's
// best-effort delivery. The simulated network acks every synchronous
// delivery (chord.Send returns chord.ErrDropped on a miss; DirectSend and
// Multisend report per-recipient); a sender under fault injection re-sends
// unacked messages up to Config.MaxRetries times, advancing the logical
// clock between attempts so delayed in-flight copies get a chance to land.
// Receivers stay idempotent (rewritten-key dedup, value-store content
// keys, notification delivery keys), which turns the combination into
// effectively-once processing: completeness from retries, no duplicate
// answers from dedup.

// advanceBackoff advances the logical clock by one unit between retry
// attempts, letting delayed in-flight copies land before the next one.
func (e *Engine) advanceBackoff() {
	e.net.Clock().Advance(1)
}

// retry calls send until it reports the message done with (taken, or
// passed over), at most 1+Config.MaxRetries times, and reports whether it
// did. Each retry follows a clock advance and is booked under kind; none is
// made once node is down (the sender, or the receiver the retries wait
// for). A message never done with is booked lost.
func (e *Engine) retry(kind string, node *chord.Node, send func() bool) bool {
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if attempt > e.cfg.MaxRetries || !node.Alive() {
				e.net.Traffic().RecordLost(kind)
				return false
			}
			e.net.Traffic().RecordRetry(kind)
			e.advanceBackoff()
		}
		if send() {
			return true
		}
	}
}

// retryFailed re-sends every deliverable of batch whose recipient slot is
// still nil, up to Config.MaxRetries attempts each, and returns the updated
// recipient slice. Deliverables unacked after the budget, every one of them
// when the budget is 0, as cqjoind runs, are charged to the traffic ledger's
// lost counter — the completeness invariant tolerates a loss probability of
// p_drop^(1+MaxRetries), negligible for the budgets chaos runs configure.
func (e *Engine) retryFailed(from *chord.Node, batch []chord.Deliverable, recipients []*chord.Node) []*chord.Node {
	if recipients == nil {
		recipients = make([]*chord.Node, len(batch))
	}
	var pending []int
	for i, r := range recipients {
		if r == nil {
			pending = append(pending, i)
		}
	}
	for attempt := 1; attempt <= e.cfg.MaxRetries && len(pending) > 0 && from.Alive(); attempt++ {
		// Let logical time pass: the chaos layer's delay queue drains on
		// clock listeners, so a delayed original may arrive during the
		// backoff and the retry then lands on an idempotent receiver.
		e.advanceBackoff()
		still := pending[:0]
		for _, i := range pending {
			e.net.Traffic().RecordRetry(batch[i].Msg.Kind())
			dst, _, err := from.Send(batch[i].Msg, batch[i].Target)
			if err != nil {
				still = append(still, i)
				continue
			}
			recipients[i] = dst
		}
		pending = still
	}
	for _, i := range pending {
		e.net.Traffic().RecordLost(batch[i].Msg.Kind())
	}
	return recipients
}
