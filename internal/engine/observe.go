package engine

import "cqjoin/internal/obs"

// engObs bundles the engine's pre-created metric handles. The handles are
// interned once at engine construction so the hot paths (notification
// delivery, hot-key relays, hint lookups) record with a single atomic add and
// no map lookups. With no registry configured every handle is nil and each
// record call is one predicate on a nil receiver — recording never feeds
// back into protocol decisions, so runs are bit-identical either way.
// Messages, retries and losses are not here: the overlay's traffic ledger
// (metrics.Traffic) counts them by kind.
type engObs struct {
	// notifyDelivered counts notifications consumed by their subscriber;
	// notifyStored counts notifications parked at Successor(Id(n)) for an
	// offline subscriber; notifyReplayed counts stored notifications handed
	// over on reconnect (Section 4.6 of the paper).
	notifyDelivered *obs.Counter
	notifyStored    *obs.Counter
	notifyReplayed  *obs.Counter
	// subIPResets counts restarts of an evaluator's learned subscriber
	// addresses (learnIP).
	subIPResets *obs.Counter
	// Hot-key sharding (DESIGN.md §13): promotions and the relay frames the
	// base evaluator emits for promoted inputs, by kind.
	hotPromotions *obs.Counter
	hotForwards   *obs.CounterVec
	// Indexing on demand (DESIGN.md §5): tuples rewriters forwarded, al-index
	// deliveries that triggered and forwarded nothing, retraction-memory
	// restarts, and the silences rewriters took back (one per publisher told).
	vlForwards      *obs.Counter
	alIndexIdle     *obs.Counter
	retractedResets *obs.Counter
	revokes         *obs.Counter
	// hints counts lookups in the tables behind chord.Deliverable.Hint, labelled
	// client.outcome. The publisher's ("al") looks up once a publication: hit,
	// every message went to a remembered node that kept it; stale, one did not;
	// miss, the batch walked; reset, a claim evicted another relation; and
	// silent once per al-index message the publication skipped, its rewriter
	// having said nothing reads it. The JFRT ("jfrt") looks up once a join or
	// purge message; reset is a full restart.
	hints *obs.CounterVec
}

// newEngObs registers the engine's metric families on reg; a nil registry
// yields the all-nil zero handle set.
func newEngObs(reg *obs.Registry) engObs {
	if reg == nil {
		return engObs{}
	}
	return engObs{
		notifyDelivered: reg.Counter("engine.notify.delivered"),
		notifyStored:    reg.Counter("engine.notify.stored"),
		notifyReplayed:  reg.Counter("engine.notify.replayed"),
		subIPResets:     reg.Counter("engine.sub_ip_resets"),
		hotPromotions:   reg.Counter("engine.hotkey.promotions"),
		hotForwards:     reg.CounterVec("engine.hotkey.forwards"),
		vlForwards:      reg.Counter("engine.vl_forwards"),
		alIndexIdle:     reg.Counter("engine.al_index_idle"),
		retractedResets: reg.Counter("engine.retracted_resets"),
		revokes:         reg.Counter("engine.revokes"),
		hints:           reg.CounterVec("engine.hints"),
	}
}
