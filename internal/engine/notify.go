package engine

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Notification is the answer to a triggered continuous query: the SELECT
// projection over a matched pair of tuples plus the time information of
// Section 4.6 ("the appropriate tuples along with time information about
// when those tuples were inserted"). In flight, and stored for an offline
// subscriber, a notification says only what its subscriber reads: its key
// past the subscriber its batch names, its values and LeftPubT/RightPubT
// (codec.go, Notification.walk).
type Notification struct {
	// QueryKey is Key(q) of the triggered query.
	QueryKey string
	// Subscriber is the key of the node that posed the query.
	Subscriber string
	// Values is the SELECT projection in declaration order.
	Values []relation.Value
	// LeftPubT and RightPubT are the publication times of the matched
	// tuples of the left and right join relations. A chain match of more
	// than two relations has RightPubT for its last tuple and identifies
	// the others together in LeftPubT (match.chainID).
	LeftPubT, RightPubT int64
	// DeliveredAt is the logical time the notification reached its
	// subscriber (possibly after an offline period), set on delivery: 0
	// while it travels.
	DeliveredAt int64

	// subscriberIP is the address the subscriber had when it posed the
	// query (IP(n) in the query() message of Section 4.3.1). Only the
	// evaluator that built the notification reads it (knownIP), to take the
	// one-hop delivery path, falling back to DHT routing when it is stale.
	// A lean batch does not say it: a notification decoded from one has none.
	subscriberIP string
}

// ContentKey renders the notification's query key and values, the identity
// under which all four algorithms must agree (duplicate-avoidance
// invariant of Section 4.4).
func (n Notification) ContentKey() string {
	var buf [keyScratch]byte
	return string(n.appendContentKey(buf[:0]))
}

// keyScratch sizes the stack buffers the engine's key and identifier-input
// builders append into: a key that fits costs exactly one allocation, its
// final string.
const keyScratch = 160

func (n Notification) appendContentKey(b []byte) []byte {
	b = append(b, n.QueryKey...)
	for _, v := range n.Values {
		b = append(b, '|')
		b = v.AppendCanon(b)
	}
	return b
}

// String renders the notification for logs and example output.
func (n Notification) String() string {
	parts := make([]string, len(n.Values))
	for i, v := range n.Values {
		parts[i] = v.String()
	}
	return fmt.Sprintf("%s -> (%s)", n.QueryKey, strings.Join(parts, ", "))
}

// match is a pair an evaluator's loop found to answer q: trig is the tuple
// consumed at the attribute level (the rewritten query's side), other the
// tuple matched at the value level. A chain's match is its last stage's: trig
// the tuple matched before other, and prefix those matched before trig.
type match struct {
	q           *query.Query
	side        query.Side
	trig, other *relation.Tuple
	prefix      []*relation.Tuple // a chain match's tuples before trig
}

// combo returns the chain match's tuples in chain order, in a slice of buf.
func (m *match) combo(buf []*relation.Tuple) []*relation.Tuple {
	combo := append(append(append(buf[:0], m.prefix...), m.trig), m.other)
	if m.side == query.SideRight {
		slices.Reverse(combo)
	}
	return combo
}

// chainID is the LeftPubT of a chain match: what identifies every matched
// tuple but the last, the top 63 bits of Hash of the key of the rewrite that
// met it (appendChainKey), which lists their publication times. The SELECT
// list may name the end relations only, and then combinations that differ
// in an interior tuple share their content and both end times; delivery
// deduplication (deliveredSet.identity) would drop all but one of them as
// repeats.
func (m *match) chainID() int64 {
	var buf [keyScratch]byte
	h := id.Hash(string(appendChainKey(buf[:0], m.q.Key(), m.prefix, m.trig)))
	return int64(binary.BigEndian.Uint64(h[:8]) >> 1)
}

// pair returns the matched tuples as the query's left and right relations.
func (m *match) pair() (left, right *relation.Tuple) {
	if m.side == query.SideRight {
		return m.other, m.trig
	}
	return m.trig, m.other
}

// notification is the match's notification, carrying vals.
func (m *match) notification(left, right *relation.Tuple, vals []relation.Value) Notification {
	return Notification{
		QueryKey:     m.q.Key(),
		Subscriber:   m.q.Subscriber(),
		Values:       vals,
		LeftPubT:     left.PubT(),
		RightPubT:    right.PubT(),
		subscriberIP: m.q.SubscriberIP(),
	}
}

// buildNotification projects the matched pair of tuples through the query,
// as one match of notifications would.
func buildNotification(q *query.Query, indexSide query.Side, trig, other *relation.Tuple) (Notification, error) {
	m := match{q: q, side: indexSide, trig: trig, other: other}
	left, right := m.pair()
	vals, err := q.ProjectNotification(left, right)
	if err != nil {
		return Notification{}, err
	}
	return m.notification(left, right, vals), nil
}

// notifications turns an evaluator's matches into their batch, in match
// order. The batch and every notification's values are two arrays sized
// exactly; each Values is a segment capped at its own length, so an append
// through one never writes into the next. A match whose projection fails has
// no notification.
func notifications(ms []match) []Notification {
	if len(ms) == 0 {
		return nil
	}
	vals := 0
	for i := range ms {
		vals += ms[i].q.SelectLen()
	}
	out := make([]Notification, 0, len(ms))
	slab := make([]relation.Value, 0, vals)
	for i := range ms {
		m := &ms[i]
		start := len(slab)
		var err error
		if len(m.prefix) > 0 {
			var buf [8]*relation.Tuple
			if slab, err = m.q.AppendNotification(slab, m.combo(buf[:0])...); err == nil {
				n := m.notification(m.trig, m.other, slab[start:len(slab):len(slab)])
				n.LeftPubT = m.chainID()
				out = append(out, n)
			}
			continue
		}
		left, right := m.pair()
		if slab, err = m.q.AppendNotification(slab, left, right); err == nil {
			out = append(out, m.notification(left, right, slab[start:len(slab):len(slab)]))
		}
	}
	return out
}

// sendNotifications delivers a batch of notifications from evaluator node
// (state st), grouping them per subscriber into one message each
// (Section 4.6). Delivery prefers the direct IP path — one overlay hop,
// available when the subscriber is online at the address the evaluator
// knows. A subscriber that reconnected under a different address is
// reached through the DHT (Send to Successor(Id(n)) = the subscriber,
// since Id(n) = Hash(Key(n)) never changes) and replies with its new
// address, which the evaluator caches for future one-hop deliveries. A
// subscriber that is offline entirely has its notifications stored at
// Successor(Id(n)) until it reconnects and receives them with the key
// hand-off.
//
// Subscribers are served in first-seen order and each receives its
// notifications in batch order, whichever way the batch is grouped: up to
// smallTableMax subscribers by a stable sort in place, so each subscriber's
// run is a slice of the batch; more through a map. Either way the messages,
// one per subscriber, are one array. The batch becomes the engine's: callers
// build it and end with this call.
func (st *nodeState) sendNotifications(batch []Notification) {
	if len(batch) == 0 {
		return
	}
	var subs [smallTableMax]string
	k := 0
	for i := range batch {
		if slices.Contains(subs[:k], batch[i].Subscriber) {
			continue
		}
		if k == smallTableMax {
			st.sendNotificationsByMap(batch)
			return
		}
		subs[k] = batch[i].Subscriber
		k++
	}
	if k > 1 {
		rank := func(n *Notification) int { return slices.Index(subs[:k], n.Subscriber) }
		slices.SortStableFunc(batch, func(a, b Notification) int { return rank(&a) - rank(&b) })
	}
	msgs := make([]notifyMsg, 0, k)
	for start := 0; start < len(batch); {
		end := start + 1
		for end < len(batch) && batch[end].Subscriber == batch[start].Subscriber {
			end++
		}
		msgs = append(msgs, notifyMsg{Subscriber: batch[start].Subscriber, Batch: batch[start:end:end]})
		st.deliverNotify(&msgs[len(msgs)-1])
		start = end
	}
}

func (st *nodeState) sendNotificationsByMap(batch []Notification) {
	bySub := make(map[string][]Notification)
	order := make([]string, 0, 2*smallTableMax)
	for _, n := range batch {
		if _, seen := bySub[n.Subscriber]; !seen {
			order = append(order, n.Subscriber)
		}
		bySub[n.Subscriber] = append(bySub[n.Subscriber], n)
	}
	msgs := make([]notifyMsg, len(order))
	for i, sub := range order {
		msgs[i] = notifyMsg{Subscriber: sub, Batch: bySub[sub]}
		st.deliverNotify(&msgs[i])
	}
}

// deliverNotify runs the delivery ladder for one subscriber's message. Each
// attempt re-resolves the subscriber — it may have crashed, rejoined or
// changed address between attempts — and picks the appropriate path:
// offline storage through the DHT, one-hop direct delivery at a known
// address, or DHT delivery with address learning when the known address is
// stale. A missing ack consumes one retry from Config.MaxRetries; a batch
// still unacked after the budget is charged as lost.
func (st *nodeState) deliverNotify(msg *notifyMsg) {
	e := st.engine
	sub := msg.Subscriber
	e.retry(kindNotify, st.node, func() bool {
		dst := e.net.NodeByKey(sub)
		if dst == nil {
			// Subscriber offline: route to Successor(Id(n)) for storage
			// until it reconnects (Section 4.6).
			_, _, err := st.node.Send(msg, id.Hash(sub))
			return err == nil
		}
		if st.knownIP(sub, msg.Batch) == dst.IP() {
			// Online at the known address: one hop.
			if st.node.DirectSend(msg, dst) {
				return true
			}
			// The address stopped answering; forget the learned entry so
			// the next attempt goes through the DHT.
			st.mu.Lock()
			delete(st.subIPs, sub)
			st.mu.Unlock()
			return false
		}
		// Online, but the known address is stale: deliver through the DHT
		// and learn the new address from the subscriber's reply (one extra
		// direct hop, charged as ip-update).
		if _, _, err := st.node.Send(msg, id.Hash(sub)); err != nil {
			return false
		}
		e.net.Traffic().Record("ip-update", 1)
		st.mu.Lock()
		st.learnIP(sub, dst.IP())
		st.mu.Unlock()
		return true
	})
}

// subIPsMax bounds the subscriber addresses one evaluator learns: full, they
// restart, and a subscriber whose entry went is reached through the DHT once
// more and relearned.
const subIPsMax = 1 << 14

// learnIP records the address sub answered from. The caller holds st.mu.
func (st *nodeState) learnIP(sub, ip string) {
	if _, ok := st.subIPs[sub]; !ok && len(st.subIPs) >= subIPsMax {
		st.engine.obs.subIPResets.Inc()
		clear(st.subIPs)
	}
	if st.subIPs == nil {
		st.subIPs = make(map[string]string)
	}
	st.subIPs[sub] = ip
}

// knownIP returns the freshest address the evaluator has for a subscriber:
// a learned entry if one exists, otherwise the address embedded in the
// query when it was posed.
func (st *nodeState) knownIP(sub string, batch []Notification) string {
	st.mu.Lock()
	ip, ok := st.subIPs[sub]
	st.mu.Unlock()
	if ok {
		return ip
	}
	for _, n := range batch {
		if n.subscriberIP != "" {
			return n.subscriberIP
		}
	}
	return ""
}

// storedMailMax bounds the notifications a node stores for one subscriber:
// a subscriber that never comes back costs its holder this much, not what an
// endless stream would send it.
const storedMailMax = 1 << 12

// handleNotify processes a notification message arriving at node st: the
// subscriber itself consumes it; any other node is Successor(Id(n)) of a
// subscriber that is offline, or whose identifier moved (Section 4.7.2) and
// that is online elsewhere. It forwards the latter's batch in one direct hop,
// and stores what it cannot forward for replay on reconnect (Section 4.6), up
// to storedMailMax for the subscriber; each notification past that is lost,
// booked under traffic.lost. A replay that fails, and a hand-off, carry on
// only what was stored.
func (st *nodeState) handleNotify(msg *notifyMsg) {
	if st.node.Key() == msg.Subscriber {
		now := st.engine.net.Clock().Now()
		for _, n := range msg.Batch {
			n.DeliveredAt = now
			st.engine.record(n)
		}
		st.engine.obs.notifyDelivered.Add(int64(len(msg.Batch)))
		return
	}
	if dst := st.engine.net.NodeByKey(msg.Subscriber); dst != nil && st.node.DirectSend(msg, dst) {
		return
	}
	st.mu.Lock()
	kept := msg.Batch[:min(len(msg.Batch), max(0, storedMailMax-len(st.storedNotifs[msg.Subscriber])))]
	st.storeNotifs(msg.Subscriber, kept)
	st.mu.Unlock()
	for range msg.Batch[len(kept):] {
		st.engine.net.Traffic().RecordLost(kindNotify)
	}
	st.engine.obs.notifyStored.Add(int64(len(kept)))
}

// replayStoredNotifications hands stored notifications for subscriber key
// over to the reconnected subscriber node. If every delivery attempt is
// lost in transit, the batch is re-stored so a later reconnect (or hand-
// off) can replay it again — stored notifications must survive unreliable
// delivery.
func (st *nodeState) replayStoredNotifications(sub string, dst *chord.Node) {
	st.mu.Lock()
	batch := st.storedNotifs[sub]
	delete(st.storedNotifs, sub)
	st.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	e := st.engine
	msg := &notifyMsg{Subscriber: sub, Batch: batch}
	// Retries stop when the subscriber vanishes again mid-replay, keeping
	// the batch for its next reconnect.
	if e.retry(kindNotify, dst, func() bool { return st.node.DirectSend(msg, dst) }) {
		e.obs.notifyReplayed.Add(int64(len(batch)))
		return
	}
	st.mu.Lock()
	st.storeNotifs(sub, batch)
	st.mu.Unlock()
}

// storeNotifs adds batch to the notifications stored for subscriber sub. The
// caller holds st.mu.
func (st *nodeState) storeNotifs(sub string, batch []Notification) {
	if st.storedNotifs == nil {
		st.storedNotifs = make(map[string][]Notification)
	}
	st.storedNotifs[sub] = append(st.storedNotifs[sub], batch...)
}
