package chord

import "slices"

// Transport is the pluggable delivery layer under the routing algorithms:
// once Send/DirectSend/Multisend have resolved which node a message must
// reach, the transport moves it there and reports the synchronous ack the
// reliability layer retries on.
//
// Two implementations exist. The default simTransport below delivers
// in-process through the chaos interceptor choke point, keeping the
// simulator's bit-exact determinism. internal/transport provides a real
// TCP transport for multi-process overlays; it re-encodes every message
// through the engine codecs and delivers it on the owning process via
// Network.DeliverLocal.
//
// Contract: Deliver returns true only when the destination's handler ran
// (at least once) before Deliver returned — the ack semantics the engine's
// retry layer (reliable.go) depends on. DeliverBatch delivers msgs to one
// destination in order and returns one ack per message, which the caller
// only reads; it exists so a remote transport can move a whole multisend leg
// in a single frame; the msgs slice belongs to the caller again once
// DeliverBatch returns.
// Implementations must tolerate reentrancy: handlers send new messages
// from inside a delivery.
type Transport interface {
	Deliver(from, dst *Node, msg Message) bool
	DeliverBatch(from, dst *Node, msgs []Message) []bool
}

// Replier is a message whose handler answers its sender in the delivery's
// ack: one byte below 128, zero for no answer. The in-process transport
// leaves the answer in the message the sender holds; a remote one carries it
// back in the ack's status byte and sets it there. An unacked delivery
// answers nothing the sender may read.
type Replier interface {
	Message
	Reply() byte
	SetReply(byte)
}

// simTransport is the in-process default: hand the message pointer to the
// destination's handler, optionally through the fault-injection
// interceptor. It is exactly the delivery path the simulator always had —
// installing no custom transport leaves every same-seed run bit-identical.
type simTransport struct {
	net *Network
}

func (t *simTransport) Deliver(from, dst *Node, msg Message) bool {
	if ic := t.net.Interceptor(); ic != nil {
		return ic.Deliver(from, dst, msg, func() bool { return handOver(dst, msg) }) > 0
	}
	return handOver(dst, msg)
}

// handOver is one synchronous delivery attempt: it reports whether dst was
// alive to receive msg.
func handOver(dst *Node, msg Message) bool {
	if !dst.Alive() {
		return false
	}
	if h := dst.Handler(); h != nil {
		h.HandleMessage(dst, msg)
	}
	return true
}

// DeliverBatch answers a run of which every message landed with allLanded,
// where it would allocate: its caller, deliverRun, only reads the acks. The
// first refusal, or a run longer than allLanded, takes acks of its own.
func (t *simTransport) DeliverBatch(from, dst *Node, msgs []Message) []bool {
	n := min(len(msgs), len(allLanded))
	acks, shared := allLanded[:n:n], n == len(msgs)
	if !shared {
		acks = make([]bool, len(msgs))
	}
	for i, m := range msgs {
		ok := t.Deliver(from, dst, m)
		if !ok && shared {
			acks, shared = slices.Clone(acks), false
		}
		if !shared {
			acks[i] = ok
		}
	}
	return acks
}

// allLanded is the acks of a run of up to multisendKeep messages that all
// landed. Nothing writes it.
var allLanded = func() (acks [multisendKeep]bool) {
	for i := range acks {
		acks[i] = true
	}
	return acks
}()

// SetTransport installs (or, with nil, restores the simulated default)
// delivery transport; the routing and accounting layers above the transport
// are unchanged either way. It may be called at any time, also while
// messages are in flight: each delivery reads the slot once, atomically, and
// uses the transport it read.
func (net *Network) SetTransport(t Transport) {
	if t == nil {
		net.transport.Store(&net.simT)
		return
	}
	net.transport.Store(&t)
}

// Transport returns the delivery transport in effect: the installed custom
// transport, or the in-process simulated default.
func (net *Network) Transport() Transport { return *net.transport.Load() }

// DeliverLocal hands msg straight to the alive node with the given key on
// this process — the receive path of a remote transport, which has already
// crossed its own wire and decoded the message. It bypasses the
// interceptor: fault injection models the simulated network, and a remote
// transport has real packet loss of its own. Returns false when the node
// is unknown or dead (the remote sender's missing ack).
func (net *Network) DeliverLocal(dstKey string, msg Message) bool {
	dst := net.NodeByKey(dstKey)
	if dst == nil {
		return false
	}
	if h := dst.Handler(); h != nil {
		h.HandleMessage(dst, msg)
	}
	return true
}
