// Package chaos is a deterministic fault-injection layer for the simulated
// overlay. It hooks the single choke point where the simulation delivers a
// message to a node (chord.Interceptor) and perturbs the run with message
// drops, duplications and bounded delays, plus node crash/rejoin schedules
// and stale-subscriber-address events — every decision derived from one
// int64 seed, so the seed reproduces the whole fault schedule event for
// event. Per-delivery fates are keyed by message content (keyedDrawLocked),
// so a recovery replaying the same traffic meets the same faults; Step's
// membership picks come from a sequential seeded stream. The invariant
// harness (invariants.go) checks that the engine's robustness mechanisms —
// retries, duplicate absorption, key hand-off, offline-notification replay
// — turn this hostile network back into exactly the answer set of the
// centralized oracle.
package chaos

import (
	"fmt"

	"cqjoin/internal/chord"
	"cqjoin/internal/engine"
	"cqjoin/internal/lockdep"
	"cqjoin/internal/sim"
	"cqjoin/internal/wire"
)

// Config parameterizes an Injector. All rates are probabilities in [0, 1].
type Config struct {
	// Seed drives every fault decision. Runs with equal seeds (and equal
	// workloads) produce identical traces.
	Seed int64
	// DropRate is the per-delivery probability the message vanishes. The
	// sender sees a missing ack and may retry.
	DropRate float64
	// DupRate is the per-delivery probability the message arrives twice.
	DupRate float64
	// DelayRate is the per-delivery probability the message is held back
	// and released only once the logical clock passes its due time. A
	// delayed delivery is unacked at send time, like a drop; the late copy
	// must be absorbed by the receiver's idempotence.
	DelayRate float64
	// MaxDelay bounds the hold-back duration in logical time units
	// (uniform in [1, MaxDelay]). Zero means 3.
	MaxDelay int64
	// CrashRate is the per-Step probability that one random alive node
	// crashes (fail-stop, no goodbye; see engine.FailNode).
	CrashRate float64
	// RejoinAfter is how long (logical time) a crashed node stays down
	// before Step brings it back under the same key. Zero means 10.
	RejoinAfter int64
	// StaleIPRate is the per-Step probability that one random alive node
	// changes its address, invalidating every learned subscriber IP that
	// points at it (the Section 4.6 stale-address scenario).
	StaleIPRate float64
	// JoinRate is the per-Step probability that one brand-new node joins
	// the overlay. Joined nodes get deterministic keys derived from the
	// injector's join counter, so the same seed replays the same
	// membership schedule.
	JoinRate float64
	// LeaveRate is the per-Step probability that one random alive node
	// leaves voluntarily (keys handed to its successor before departure,
	// unlike a crash). The departed node is scheduled to rejoin after
	// RejoinAfter, exactly like a crash victim, so invariant checks after
	// HealAll compare against a full-membership oracle.
	LeaveRate float64
	// ProtocolChurn switches every membership change — crash, rejoin, join,
	// leave — from the oracle-repair paths (Network.Fail/Join, which splice
	// pointers exactly) to the protocol-only paths (FailProtocol/
	// JoinProtocol/LeaveProtocol): pointers then converge solely through
	// check-predecessor, successor-list failover, stabilize/notify and
	// fix-fingers, and key hand-off to a joiner happens at its successor's
	// notify-adoption. Runs with ProtocolChurn need StabilizeEvery > 0 (or
	// HealAll) for joins to splice at all.
	ProtocolChurn bool
	// MinAlive suppresses crashes that would leave fewer alive nodes.
	// Zero means 4.
	MinAlive int
	// StabilizeEvery runs one overlay maintenance round
	// (chord.StabilizeOnce) every that many Steps. Zero disables periodic
	// maintenance; the overlay then heals only through the local repairs
	// crashes and joins trigger, and through HealAll.
	StabilizeEvery int
	// RestartEvery flags a whole-process crash/restart every that many
	// Steps (0 disables). The injector cannot restart the process that
	// hosts it, so Step only raises the flag and traces "proc-restart";
	// the harness owning the engine polls TakeRestart, abandons its
	// durable state, rebuilds the engine, recovers, and hands the new
	// engine back through Rebind. In-flight parked deliveries die with
	// the old process, exactly as a kill -9 would lose them.
	RestartEvery int
}

func (c Config) withDefaults() Config {
	if c.MaxDelay <= 0 {
		c.MaxDelay = 3
	}
	if c.RejoinAfter <= 0 {
		c.RejoinAfter = 10
	}
	if c.MinAlive <= 0 {
		c.MinAlive = 4
	}
	return c
}

// crashed tracks a node that is down and when it becomes due to rejoin.
type crashed struct {
	key      string
	rejoinAt int64
}

// Injector implements chord.Interceptor. Construct with New, which
// installs it on the engine's network; drive Step between workload events;
// call Calm and HealAll before checking invariants.
//
// Concurrency: fault decisions and the trace are taken under an internal
// mutex, but the mutex is NEVER held across a forward() call — delivering
// a message re-enters node handlers, which send messages of their own and
// come back through Deliver.
type Injector struct {
	cfg Config
	eng *engine.Engine
	net *chord.Network
	rng *sim.Source
	dq  *sim.DelayQueue

	mu          lockdep.Mutex[injectorMu]
	calm        bool
	draining    bool
	steps       int
	incarnation int
	joinSeq     int // deterministic naming for JoinRate joiners
	restartDue  bool
	down        []crashed
	trace       []string

	// Keyed-draw state (all under mu): the per-content attempt counters
	// give a retried or duplicated message a fresh draw, and encBuf is the
	// reused encode scratch. Reset only by Rebind: a recovery's replay
	// counts attempts afresh, as the original run did.
	attempts map[uint64]int64
	encBuf   wire.Buffer

	// drain's reusable release buffer; only the single active drainer
	// (guarded by draining) touches it.
	scratch []func()
}

type injectorMu struct{} // Injector.mu's lock class

// New builds an Injector over the engine's overlay, installs it as the
// network interceptor and hangs its delay queue on the logical clock, so
// whoever advances time releases due deliveries.
func New(eng *engine.Engine, cfg Config) *Injector {
	in := &Injector{
		cfg:      cfg.withDefaults(),
		eng:      eng,
		net:      eng.Network(),
		rng:      sim.NewSource(cfg.Seed),
		dq:       &sim.DelayQueue{},
		attempts: make(map[uint64]int64),
	}
	in.net.Clock().AddListener(func(now int64) { in.drain(now) })
	in.net.SetInterceptor(in)
	return in
}

// Deliver decides the fate of one message delivery. Self-deliveries pass
// through untouched: a node's message to itself never crosses the network
// (notification replay after a rejoin is such a local hand-over).
func (in *Injector) Deliver(from, dst *chord.Node, msg chord.Message, forward func() bool) int {
	in.mu.Lock()
	if in.calm || from == dst {
		in.mu.Unlock()
		return ack(forward())
	}
	kind := msg.Kind()
	now := in.net.Clock().Now()
	c := in.cfg
	p, d := in.keyedDrawLocked(from, dst, msg)
	switch {
	case p < c.DropRate:
		in.tracefLocked("t=%d drop %s %s->%s", now, kind, from.Key(), dst.Key())
		in.mu.Unlock()
		return 0
	case p < c.DropRate+c.DupRate:
		in.tracefLocked("t=%d dup %s %s->%s", now, kind, from.Key(), dst.Key())
		in.mu.Unlock()
		first := forward()
		second := forward()
		return ack(first || second)
	case p < c.DropRate+c.DupRate+c.DelayRate:
		in.tracefLocked("t=%d delay+%d %s %s->%s", now, d, kind, from.Key(), dst.Key())
		in.mu.Unlock()
		in.dq.PushAt(now+d, func() {
			in.tracef("t=%d release %s %s->%s", in.net.Clock().Now(), kind, from.Key(), dst.Key())
			forward() // checks dst.Alive itself; a crashed recipient loses the copy
		})
		return 0 // unacked: the sender treats it as lost and may retry
	default:
		in.mu.Unlock()
		return ack(forward())
	}
}

// mix64 is the splitmix64 finalizer — a cheap bijective scrambler used to
// fold the seed and attempt number into the content hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// keyedDrawLocked derives a delivery's fate from its content rather than
// from a shared draw sequence: FNV-1a over the encoded message plus the
// endpoint keys identifies the delivery, a per-content attempt counter
// distinguishes retries and duplicate forwards of the same message, and
// the seed folds in so different seeds give different schedules. Returns
// the fate draw p and a delay in [1, MaxDelay]. Caller holds in.mu.
func (in *Injector) keyedDrawLocked(from, dst *chord.Node, msg chord.Message) (p float64, d int64) {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	h := uint64(fnvOffset)
	step := func(bs []byte) {
		for _, b := range bs {
			h = (h ^ uint64(b)) * fnvPrime
		}
	}
	in.encBuf.Reset()
	if err := engine.EncodeMessage(&in.encBuf, msg); err == nil {
		step(in.encBuf.Bytes())
	} else {
		step([]byte(msg.Kind()))
	}
	step([]byte(from.Key()))
	h = (h ^ 0) * fnvPrime // separator: ("ab","c") != ("a","bc")
	step([]byte(dst.Key()))

	in.attempts[h]++
	x := mix64(h ^ mix64(uint64(in.cfg.Seed)) ^ mix64(uint64(in.attempts[h])))
	p = float64(x>>11) / float64(1<<53)
	x = mix64(x)
	d = 1 + int64(x%uint64(in.cfg.MaxDelay))
	return p, d
}

func ack(delivered bool) int {
	if delivered {
		return 1
	}
	return 0
}

// drain releases every parked delivery that has come due. It runs on every
// clock advance; re-entrant advances (a released delivery triggers a retry
// backoff, which advances the clock again) fall through the guard and are
// picked up by the outer loop's next iteration.
func (in *Injector) drain(int64) {
	in.mu.Lock()
	if in.draining {
		in.mu.Unlock()
		return
	}
	in.draining = true
	in.mu.Unlock()
	defer func() {
		in.mu.Lock()
		in.draining = false
		in.mu.Unlock()
	}()
	for {
		in.scratch = in.dq.PopDueInto(in.net.Clock().Now(), in.scratch)
		fns := in.scratch
		if len(fns) == 0 {
			return
		}
		for _, fn := range fns {
			fn()
		}
	}
}

// Step advances the fault schedule by one workload event: due crashed
// nodes rejoin, at most one node crashes, at most one node changes
// address, and periodic overlay maintenance runs.
func (in *Injector) Step() {
	now := in.net.Clock().Now()
	in.mu.Lock()
	if in.calm {
		in.mu.Unlock()
		return
	}
	in.steps++
	steps := in.steps
	var due []crashed
	keep := in.down[:0]
	for _, c := range in.down {
		if now >= c.rejoinAt {
			due = append(due, c)
		} else {
			keep = append(keep, c)
		}
	}
	in.down = keep
	// Every rate draw is guarded by rate > 0 so schedules that do not use a
	// fault class leave the shared rng stream untouched — existing seeded
	// traces stay bit-identical as new classes are added.
	crash := in.cfg.CrashRate > 0 && in.rng.Float64() < in.cfg.CrashRate
	stale := in.cfg.StaleIPRate > 0 && in.rng.Float64() < in.cfg.StaleIPRate
	join := in.cfg.JoinRate > 0 && in.rng.Float64() < in.cfg.JoinRate
	leave := in.cfg.LeaveRate > 0 && in.rng.Float64() < in.cfg.LeaveRate
	if in.cfg.RestartEvery > 0 && steps%in.cfg.RestartEvery == 0 {
		in.restartDue = true
		in.tracefLocked("t=%d proc-restart", now)
	}
	in.mu.Unlock()

	for _, c := range due {
		in.rejoin(c.key)
	}
	if crash {
		in.crashRandom(now)
	}
	if stale {
		in.changeRandomIP(now)
	}
	if join {
		in.joinFresh(now)
	}
	if leave {
		in.leaveRandom(now)
	}
	if in.cfg.StabilizeEvery > 0 && steps%in.cfg.StabilizeEvery == 0 {
		in.net.StabilizeOnce(1)
		in.tracef("t=%d stabilize", now)
	}
}

// crashRandom fail-stops one random alive node, respecting MinAlive, and
// schedules its rejoin.
func (in *Injector) crashRandom(now int64) {
	nodes := in.net.Nodes()
	if len(nodes) <= in.cfg.MinAlive {
		return
	}
	victim := nodes[in.rng.Intn(len(nodes))]
	if in.cfg.ProtocolChurn {
		in.eng.FailNodeProtocol(victim)
	} else {
		in.eng.FailNode(victim)
	}
	in.tracef("t=%d crash %s", now, victim.Key())
	in.mu.Lock()
	in.down = append(in.down, crashed{key: victim.Key(), rejoinAt: now + in.cfg.RejoinAfter})
	in.mu.Unlock()
}

// joinFresh adds one brand-new node under a deterministic key derived from
// the injector's join counter, so the same seed produces the same
// membership schedule.
func (in *Injector) joinFresh(now int64) {
	in.mu.Lock()
	in.joinSeq++
	key := fmt.Sprintf("chaos-join-%d", in.joinSeq)
	in.mu.Unlock()
	var err error
	if in.cfg.ProtocolChurn {
		_, err = in.eng.JoinNodeProtocol(key)
	} else {
		_, err = in.eng.RejoinNode(key) // oracle join + attach
	}
	if err != nil {
		in.tracef("join-failed %s: %v", key, err)
		return
	}
	in.tracef("t=%d join %s", now, key)
}

// leaveRandom makes one random alive node depart voluntarily — its keys
// move to its successor before it goes, so nothing is lost — and schedules
// it to come back like a crash victim, keeping the eventual membership
// equal to the oracle run's.
func (in *Injector) leaveRandom(now int64) {
	nodes := in.net.Nodes()
	if len(nodes) <= in.cfg.MinAlive {
		return
	}
	victim := nodes[in.rng.Intn(len(nodes))]
	if in.cfg.ProtocolChurn {
		in.eng.LeaveNodeProtocol(victim)
	} else {
		in.net.Leave(victim)
		in.eng.Detach(victim)
	}
	in.tracef("t=%d leave %s", now, victim.Key())
	in.mu.Lock()
	in.down = append(in.down, crashed{key: victim.Key(), rejoinAt: now + in.cfg.RejoinAfter})
	in.mu.Unlock()
}

// rejoin brings a crashed node back under its old key — same ring
// position, fresh state from the key hand-off — at a NEW address, so any
// subscriber IP learned before the crash is now stale.
func (in *Injector) rejoin(key string) {
	var n *chord.Node
	var err error
	if in.cfg.ProtocolChurn {
		n, err = in.eng.JoinNodeProtocol(key)
	} else {
		n, err = in.eng.RejoinNode(key)
	}
	if err != nil {
		in.tracef("rejoin-failed %s: %v", key, err)
		return
	}
	in.mu.Lock()
	in.incarnation++
	inc := in.incarnation
	in.mu.Unlock()
	n.SetIP(fmt.Sprintf("sim://%s#i%d", n.ID().Short(), inc))
	in.tracef("t=%d rejoin %s", in.net.Clock().Now(), key)
}

// changeRandomIP re-addresses one random alive node without a crash
// (reconnect, NAT rebinding): learned notification addresses for it go
// stale and the delivery ladder must fall back to DHT routing.
func (in *Injector) changeRandomIP(now int64) {
	nodes := in.net.Nodes()
	if len(nodes) == 0 {
		return
	}
	n := nodes[in.rng.Intn(len(nodes))]
	in.mu.Lock()
	in.incarnation++
	inc := in.incarnation
	in.mu.Unlock()
	n.SetIP(fmt.Sprintf("sim://%s#i%d", n.ID().Short(), inc))
	in.tracef("t=%d stale-ip %s", now, n.Key())
}

// Calm stops injecting faults (deliveries pass through untouched) and
// flushes every still-parked delayed delivery by advancing the clock to
// each due time. Crashed nodes stay down; HealAll brings them back.
func (in *Injector) Calm() {
	in.mu.Lock()
	in.calm = true
	in.mu.Unlock()
	in.Flush()
}

// Flush releases all parked deliveries in due order, advancing the logical
// clock as needed.
func (in *Injector) Flush() {
	for {
		due, ok := in.dq.NextDue()
		if !ok {
			return
		}
		now := in.net.Clock().Now()
		if due > now {
			in.net.Clock().Advance(due - now) // listener drains
		} else {
			in.drain(now)
		}
	}
}

// HealAll rejoins every crashed node and runs overlay maintenance rounds
// until the ring is exact (RingIntact) or maxRounds is exhausted. It
// returns the number of rounds used and the final ring-check result.
func (in *Injector) HealAll(maxRounds int) (int, error) {
	in.mu.Lock()
	down := in.down
	in.down = nil
	in.mu.Unlock()
	for _, c := range down {
		in.rejoin(c.key)
	}
	if maxRounds < 1 {
		maxRounds = 1
	}
	var err error
	for round := 1; round <= maxRounds; round++ {
		in.net.StabilizeOnce(4)
		if err = RingIntact(in.net); err == nil {
			return round, nil
		}
	}
	return maxRounds, err
}

// TakeRestart consumes the process-restart flag RestartEvery raises: it
// reports whether a restart came due since the last call. The harness
// reacts by killing its engine (durable.Store.Abandon), rebuilding it,
// recovering, and calling Rebind with the new engine.
func (in *Injector) TakeRestart() bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	due := in.restartDue
	in.restartDue = false
	return due
}

// Rebind moves the injector onto a rebuilt engine after a process
// crash/restart: it installs itself as the new network's interceptor and
// clock listener, drops every parked delivery (in-flight messages die
// with the crashed process), resets the per-content attempt counters so
// replayed traffic re-experiences the original keyed fault schedule, and
// re-downs the given node keys — the crash schedule the old process was
// under, typically RecoveryInfo.Down — scheduling their rejoin afresh.
// The rng position, step count, join counter and trace carry over, so
// one seed still determines the whole multi-incarnation run.
func (in *Injector) Rebind(eng *engine.Engine, down []string) {
	in.mu.Lock()
	in.eng = eng
	in.net = eng.Network()
	in.dq = &sim.DelayQueue{}
	in.attempts = make(map[uint64]int64)
	in.down = nil
	in.mu.Unlock()
	in.net.Clock().AddListener(func(now int64) { in.drain(now) })
	in.net.SetInterceptor(in)

	now := in.net.Clock().Now()
	var rebuilt []crashed
	for _, key := range down {
		n := in.net.NodeByKey(key)
		if n == nil || !n.Alive() {
			continue
		}
		if in.cfg.ProtocolChurn {
			in.eng.FailNodeProtocol(n)
		} else {
			in.eng.FailNode(n)
		}
		rebuilt = append(rebuilt, crashed{key: key, rejoinAt: now + in.cfg.RejoinAfter})
	}
	in.mu.Lock()
	in.down = rebuilt
	in.mu.Unlock()
	in.tracef("t=%d rebind %d-down", now, len(rebuilt))
}

// Downed returns the keys of nodes currently crashed and awaiting rejoin.
func (in *Injector) Downed() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	keys := make([]string, len(in.down))
	for i, c := range in.down {
		keys[i] = c.key
	}
	return keys
}

// Trace returns a copy of the fault-event trace so far. Two runs with the
// same seed and workload produce identical traces — the reproducibility
// contract chaos tests assert.
func (in *Injector) Trace() []string {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make([]string, len(in.trace))
	copy(out, in.trace)
	return out
}

func (in *Injector) tracef(format string, args ...interface{}) {
	in.mu.Lock()
	in.tracefLocked(format, args...)
	in.mu.Unlock()
}

func (in *Injector) tracefLocked(format string, args ...interface{}) {
	in.trace = append(in.trace, fmt.Sprintf(format, args...))
}
