package chord

import (
	"fmt"
	"slices"

	"cqjoin/internal/id"
	"cqjoin/internal/lockdep"
)

// ErrRoutingFailed is returned when a lookup cannot converge, e.g. on an
// empty overlay or after exhausting the hop budget during heavy churn.
var ErrRoutingFailed = fmt.Errorf("chord: routing failed to converge")

// ErrDropped is returned when a message was routed to its destination but
// the final delivery did not complete synchronously — the network dropped
// or delayed it, or the destination was no longer alive. Routing-layer
// costs up to that point are still charged; the sender may retry.
var ErrDropped = fmt.Errorf("chord: message dropped in transit")

// Interceptor sits on the single choke point where the simulated network
// hands a message to its destination node, and may drop, duplicate or
// delay the delivery. forward performs one synchronous delivery attempt
// and reports whether the destination was alive to receive it; the
// interceptor may call it zero times (drop / defer for later), once
// (normal), or several times (duplication). Deliver returns how many
// synchronous deliveries completed — the sender treats zero as a missing
// ack and may retry. Implementations must not hold locks across forward:
// handlers re-enter the network from inside it.
type Interceptor interface {
	Deliver(from, dst *Node, msg Message, forward func() bool) int
}

// chargeBytes records the wire bytes msg moved in hops legs, when the network
// prices messages (SetSizer): behind prev, the message before it aboard, for
// as long as prev rode along — prevHops legs — and in full, at the head of what
// was left, from there on; a message alone has no prev. This is where the
// simulator meets the codec: the sizing function runs the message's one field
// walk in sizing mode, lengths added and no byte written (tuples and queries
// remember theirs), once per walk.
func (n *Node) chargeBytes(msg, prev Message, prevHops, hops int) {
	if hops <= 0 || n.net.sizer == nil {
		return
	}
	if size, shared := n.net.sizer(msg, prev); size > 0 {
		n.net.traffic.AddBytes(msg.Kind(), size*hops+shared*(hops-prevHops))
	}
}

// route walks the overlay from n to the node responsible for target, one
// nextHop — one overlay hop — at a time: finger hops while target lies beyond
// the current node's successor list (Chord's lookup, Section 2.2), then one
// final hop to the owner that list names, settled where it lands (land). It
// returns the responsible node and the number of hops travelled; a message n
// delivers to itself costs zero hops.
func (n *Node) route(target id.ID) (*Node, int, error) {
	if !n.Alive() {
		return nil, 0, fmt.Errorf("%w: origin %s is not in the overlay", ErrRoutingFailed, n)
	}
	if n.OwnsKey(target) {
		return n, 0, nil
	}
	cur := n
	hops := 0
	// A correct lookup takes O(log N) hops; allow a generous budget so
	// stale fingers after churn still converge via successor chains, but a
	// broken ring fails instead of spinning.
	budget := 2*n.net.Size() + 16
	for hops < budget {
		next, final := cur.nextHop(target)
		if final {
			return n.net.land(next, target, hops+1, budget)
		}
		if next == cur {
			break
		}
		cur = next
		hops++
	}
	return nil, hops, fmt.Errorf("%w: no progress toward %s from %s", ErrRoutingFailed, target.Short(), n)
}

// land decides ownership where a message lands. The final hop of a walk —
// already counted in hops — went to the node its sender's successor list named
// for target; that list may predate a join, so while the node the message is at
// does not own target it hands the message back to its predecessor, one charged
// hop each, inside the walk's budget. A hand-back moves toward target and never
// past it (a node that does not own target has its predecessor at or past it),
// so the walk ends at the owner. On an exact ring the lander is the owner and
// Handbacks stays 0.
func (net *Network) land(at *Node, target id.ID, hops, budget int) (*Node, int, error) {
	for !at.OwnsKey(target) {
		pred := at.Predecessor()
		if pred == nil {
			break // it failed since OwnsKey looked: at owns target now
		}
		if hops >= budget {
			return nil, hops, fmt.Errorf("%w: no owner of %s within the hop budget", ErrRoutingFailed, target.Short())
		}
		at = pred
		hops++
		net.handbacks.Inc()
	}
	return at, hops, nil
}

// Lookup returns the node responsible for identifier target — the function
// lookup(I) of the Chord API — together with the overlay hops the lookup
// cost. The hops are charged to the "lookup" traffic kind.
func (n *Node) Lookup(target id.ID) (*Node, int, error) {
	dst, hops, err := n.route(target)
	if err != nil {
		// A failed lookup still moved `hops` messages over the overlay
		// before giving up; charge them so churn experiments account for
		// wasted routing work.
		n.net.traffic.RecordHopsOnly("lookup", hops)
		return nil, hops, err
	}
	n.net.traffic.Record("lookup", hops)
	return dst, hops, nil
}

// Send implements the send(msg, I) extension of Section 2.3: it routes msg
// from n to Successor(I) and invokes that node's handler. The cost —
// O(log N) overlay hops — is charged to the message's kind. It returns the
// recipient and the hop count. When the final delivery does not complete
// synchronously (dropped, delayed or dead destination) the recipient and
// hops are still returned alongside ErrDropped so the sender can retry.
func (n *Node) Send(msg Message, target id.ID) (*Node, int, error) {
	lockdep.Sending("chord.Node.Send")
	dst, hops, err := n.route(target)
	n.chargeBytes(msg, nil, 0, hops) // a walk that gave up moved its bytes all the same
	if err != nil {
		n.net.traffic.RecordHopsOnly(msg.Kind(), hops)
		return nil, hops, err
	}
	n.net.traffic.Record(msg.Kind(), hops)
	if !n.deliverTo(dst, msg) {
		return dst, hops, ErrDropped
	}
	return dst, hops, nil
}

// DirectSend delivers msg from n straight to node dst over one simulated
// point-to-point hop, modelling delivery to a known IP address (the
// one-hop notification path of Section 4.6). It reports whether the
// delivery completed synchronously; false means the packet was lost or
// the address no longer answers, and the sender should fall back to DHT
// routing or retry.
func (n *Node) DirectSend(msg Message, dst *Node) bool {
	lockdep.Sending("chord.Node.DirectSend")
	n.net.traffic.Record(msg.Kind(), 1)
	n.chargeBytes(msg, nil, 0, 1)
	return n.deliverTo(dst, msg)
}

// Deliverable pairs one message with the ring identifier it must reach, for
// the multisend(M, L) form that sends message M_j to Successor(L_j). Hint, when
// set, is a node the sender remembers taking delivery for Target — the JFRT of
// Section 4.7.1, or a publisher's memory of its rewriters — which the message
// goes straight to (Multisend); nil, it walks.
type Deliverable struct {
	Target id.ID
	Msg    Message
	Hint   *Node
}

// Multisend implements the recursive multisend(M, L) of Section 2.3. The
// sender sorts the identifiers in ascending clockwise order starting from
// its own identifier and forwards the whole batch toward the first one;
// every node that receives the batch delivers the messages it is
// responsible for, prunes them from the list, and forwards the remainder to
// the next identifier — each forwarding step the one route takes (nextHop),
// a final hop settled where it lands (land).
//
// Hinted deliverables go first, in the caller's order: those that share a hint
// ride one leg to it, one hop, priced and delivered as a run of the walk is and
// booked as one message whatever it carries. Whether the memory holds is
// decided where the leg lands, as a walk's final hop is (land): a live node
// hands what it does not own back along predecessors — one that took delivery
// for a target once still sits at or past it, so the chain ends at the owner —
// for a successor list's reach; past that a lookup is cheaper. What does not
// land, a dead hint's whole leg included, joins the walk with its leg's hops
// and bytes booked, and is one of the walk's messages.
//
// It returns the recipient of every deliverable (aligned with the input
// batch) and the total overlay hops used, legs included. The recipients are
// written into recipients[:len(batch)], cleared first, where its capacity
// suffices: a caller that passes a stack array gets them there, and only a
// caller whose slice is too short — nil, say — has a list allocated. One
// traffic message per walking deliverable is recorded under its own kind.
// Bytes are charged leg by leg: each leg moves the frame of what is still
// aboard, in clockwise order — the head in full, every other message as it
// encodes behind the one before it (SetSizer), so a tuple the whole batch
// carries rides each leg once, booked under the kind of whichever message heads
// the list on that leg, and everything else under its own message's kind. A
// walk that dies charges what it stranded for the legs it made. The hops of the
// shared walk are not split: all of them are charged to the kind of the
// clockwise-first deliverable, a hinted leg's to its first one's. A batch may
// mix kinds — a publication's al-index and vl-index messages ride one walk —
// but which of them the walk's hops are booked under is then a coin flip per
// batch, and only the sum of the kinds' hop counts means anything.
func (n *Node) Multisend(batch []Deliverable, recipients []*Node) ([]*Node, int, error) {
	lockdep.Sending("chord.Node.Multisend")
	if len(batch) == 0 {
		return recipients[:0], 0, nil
	}
	if !n.Alive() {
		return nil, 0, fmt.Errorf("%w: origin %s is not in the overlay", ErrRoutingFailed, n)
	}
	var itemBuf [multisendStack]multisendItem // a publication's batch sorts on the stack
	items := itemBuf[:0]
	if len(batch) > multisendStack {
		items = make([]multisendItem, 0, len(batch)) // a larger one, at its size once
	}
	origin := n.ID()
	for i, d := range batch { // the walk's order, computed once per deliverable
		items = append(items, multisendItem{idx: i, dist: id.Distance(origin, d.Target)})
	}
	if cap(recipients) < len(batch) {
		recipients = make([]*Node, len(batch))
	}
	recipients = recipients[:len(batch)]
	clear(recipients)
	// One slice carries every run of the legs and the walk, and the node's next
	// multisend's: a transport is done with a run when DeliverBatch returns.
	var msgs []Message
	owner := n.runBusy.CompareAndSwap(false, true)
	if owner {
		msgs = n.run
	}
	hops, items := n.legs(batch, items, recipients, &msgs)
	walked, err := n.walk(batch, items, recipients, &msgs)
	if owner {
		n.run = nil
		if cap(msgs) <= multisendKeep { // emptied, so the node keeps no message alive
			clear(msgs[:cap(msgs)])
			n.run = msgs[:0]
		}
		n.runBusy.Store(false)
	}
	return recipients, hops + walked, err
}

// multisendItem is one deliverable of a multisend, by its position in the
// caller's batch, with its clockwise distance from the sender.
type multisendItem struct {
	idx  int
	dist id.ID
}

// legs sends the hinted deliverables of items to their hints, each hint's in
// one leg, in the order of their first. It returns the hops the legs made and
// what is left to walk — the unhinted deliverables and those no leg landed —
// compacted at the front of items.
func (n *Node) legs(batch []Deliverable, items []multisendItem, recipients []*Node, msgs *[]Message) (int, []multisendItem) {
	hops := 0
	walk := items[:0]
	for i := 0; i < len(items); {
		hint := batch[items[i].idx].Hint
		if hint == nil {
			walk = append(walk, items[i])
			i++
			continue
		}
		end := i + 1 // the hint's later deliverables move up behind its first, in order
		for j := end; j < len(items); j++ {
			if it := items[j]; batch[it.idx].Hint == hint {
				copy(items[end+1:j+1], items[end:j])
				items[end] = it
				end++
			}
		}
		legHops, left := n.leg(hint, batch, items[i:end], recipients, msgs)
		hops += legHops
		walk = append(walk, left...)
		i = end
	}
	return hops, walk
}

// leg carries aboard, deliverables hinted to hint, to it as one message: one
// hop, and one more for each hand-back to a predecessor, up to a successor
// list's reach (land's budget). Each node it reaches takes, as one run, what it
// owns. It returns the hops made and the deliverables it did not land, in
// order, at the end of aboard.
func (n *Node) leg(hint *Node, batch []Deliverable, aboard []multisendItem, recipients []*Node, msgs *[]Message) (int, []multisendItem) {
	kind, carried, hops := batch[aboard[0].idx].Msg.Kind(), len(aboard), 0
	for cur := hint; ; {
		hops++
		var prev Message
		for _, it := range aboard { // the hop moved the frame of what is aboard
			n.chargeBytes(batch[it.idx].Msg, prev, 1, 1)
			prev = batch[it.idx].Msg
		}
		if !cur.Alive() {
			break
		}
		run := 0
		for i, it := range aboard {
			if cur.OwnsKey(batch[it.idx].Target) {
				copy(aboard[run+1:i+1], aboard[run:i])
				aboard[run] = it
				run++
			}
		}
		if run > 0 {
			n.deliverRun(cur, batch, aboard[:run], recipients, msgs)
			aboard = aboard[run:]
		}
		if len(aboard) == 0 || hops > n.net.succListLen {
			break
		}
		if cur = cur.Predecessor(); cur == nil {
			break
		}
		n.net.handbacks.Inc()
	}
	if len(aboard) < carried {
		n.net.traffic.Record(kind, 0)
	}
	n.net.traffic.RecordHopsOnly(kind, hops)
	return hops, aboard
}

// walk is the recursive multisend proper, from n over sorted, which it sorts
// clockwise from n. It returns the hops it made.
func (n *Node) walk(batch []Deliverable, sorted []multisendItem, recipients []*Node, msgs *[]Message) (int, error) {
	if len(sorted) == 0 {
		return 0, nil
	}
	slices.SortStableFunc(sorted, func(a, b multisendItem) int { return a.dist.Cmp(b.dist) })

	kind := batch[sorted[0].idx].Msg.Kind()
	for _, it := range sorted {
		n.net.traffic.Record(batch[it.idx].Msg.Kind(), 0)
	}
	cur := n
	totalHops := 0
	// The list only ever loses its head, so the message before sorted[i]
	// aboard is sorted[i-1] until that one gets off: pricing the walk needs
	// the last message off and the legs made by then, nothing per message.
	var prev Message
	prevHops := 0
	budget := 2*n.net.Size() + 16*len(sorted) + 16
	var err error
	for err == nil {
		// Deliver every remaining message the current node is responsible
		// for ("x deletes all elements of L that are smaller or equal to
		// id(x), starting from head(L), since node x is responsible for
		// them").
		run := 0
		for run < len(sorted) && cur.OwnsKey(batch[sorted[run].idx].Target) {
			run++
		}
		if run > 0 {
			for _, it := range sorted[:run] {
				// Each message rode the shared walk for totalHops legs so far.
				n.chargeBytes(batch[it.idx].Msg, prev, prevHops, totalHops)
				prev, prevHops = batch[it.idx].Msg, totalHops
			}
			n.deliverRun(cur, batch, sorted[:run], recipients, msgs)
			sorted = sorted[run:]
		}
		if len(sorted) == 0 {
			break
		}
		// One forwarding step toward head(L): the step route takes, and a
		// final hop is settled the same way, so the batch is next delivered
		// at the node that owns head(L).
		head := batch[sorted[0].idx].Target
		next, final := cur.nextHop(head)
		switch {
		case totalHops >= budget:
			err = fmt.Errorf("%w: multisend exceeded hop budget", ErrRoutingFailed)
		case next == cur:
			err = fmt.Errorf("%w: multisend stuck at %s", ErrRoutingFailed, cur)
		case final:
			cur, totalHops, err = n.net.land(next, head, totalHops+1, budget)
		default:
			cur = next
			totalHops++
		}
	}
	for _, it := range sorted { // what a failed walk strands rode every leg of it
		n.chargeBytes(batch[it.idx].Msg, prev, prevHops, totalHops)
		prev, prevHops = batch[it.idx].Msg, totalHops
	}
	n.net.traffic.RecordHopsOnly(kind, totalHops)
	return totalHops, err
}

// deliverRun hands run, deliverables cur is responsible for, to the transport
// as one batch — a single frame on a remote transport, message by message in
// the simulator — and writes cur as the recipient of each it acked. A failed
// delivery leaves its recipient nil: the batch keeps moving, so one lost
// packet doesn't strand the rest. A run of one is one delivery, with no slice
// to hand over and no acks to make.
func (n *Node) deliverRun(cur *Node, batch []Deliverable, run []multisendItem, recipients []*Node, msgs *[]Message) {
	if len(run) == 1 {
		if n.deliverTo(cur, batch[run[0].idx].Msg) {
			recipients[run[0].idx] = cur
		}
		return
	}
	*msgs = (*msgs)[:0]
	if cap(*msgs) < len(run) {
		*msgs = make([]Message, 0, max(len(run), multisendStack))
	}
	for _, it := range run {
		*msgs = append(*msgs, batch[it.idx].Msg)
	}
	for i, ok := range n.net.Transport().DeliverBatch(n, cur, *msgs) {
		if ok {
			recipients[run[i].idx] = cur
		}
	}
}

// multisendStack is the largest batch Multisend sorts in a stack array: a
// publication's h al-index messages and a rewriter's join groups fit.
const multisendStack = 8

// multisendKeep is the largest run slice a node keeps between walks: one long
// run does not pin its size on the node.
const multisendKeep = 64

// MultisendIterative is the baseline the paper implemented "for comparison
// purposes": k independent send() lookups from the origin, costing
// O(k log N) hops with no path sharing. Figure 4.8 contrasts it with the
// recursive Multisend.
func (n *Node) MultisendIterative(batch []Deliverable) ([]*Node, int, error) {
	lockdep.Sending("chord.Node.MultisendIterative")
	total := 0
	var firstErr error
	recipients := make([]*Node, len(batch))
	for i, d := range batch {
		dst, hops, err := n.Send(d.Msg, d.Target)
		total += hops
		if err != nil {
			// Leave recipients[i] nil so the caller can retry just this
			// deliverable; keep going for the rest of the batch.
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		recipients[i] = dst
	}
	return recipients, total, firstErr
}

// deliverTo hands msg to dst through the network's delivery transport —
// in-process simulated delivery by default, a real wire when one is
// installed — and reports whether at least one synchronous delivery
// completed. A false return is the missing ack the reliability layer
// retries on.
func (n *Node) deliverTo(dst *Node, msg Message) bool {
	return n.net.Transport().Deliver(n, dst, msg)
}
