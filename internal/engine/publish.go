package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"cqjoin/internal/chord"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Batched publish pipeline (DESIGN.md §8). A batch of tuple insertions is
// pre-stamped with the logical timestamps a sequential run would assign,
// partitioned into waves of events whose cascades touch disjoint
// value-level state, and each wave's cascades run concurrently. Because
// (a) timestamps come from the sequence number, not from execution order,
// (b) events that can read or write the same evaluator bucket are ordered
// into input order by the wave partition, and (c) all shared counters are
// commutative, a batch produces bit-identical deterministic metrics and
// notification sets at any worker count.

// PublishOp is one tuple insertion of a batch.
type PublishOp struct {
	From *chord.Node
	T    *relation.Tuple
}

// parallelSafeInterceptor is implemented by fault injectors whose
// per-delivery decisions are a pure function of message content rather
// than of the injector's sequential draw stream (chaos.Config.KeyedDraws).
// Only such an interceptor can stay installed while cascades run
// concurrently; any other interceptor forces the sequential fallback.
type parallelSafeInterceptor interface{ ParallelSafe() bool }

// serialOnly reports whether PublishBatch must fall back to plain
// sequential Publish calls: the baselines and the multi-way extension keep
// per-arrival state the two-way conflict analysis does not model, and an
// arrival-order-dependent fault injector would change its draw schedule
// under both batching and concurrency.
func (e *Engine) serialOnly() bool {
	switch e.cfg.Algorithm {
	case BaselineRelation, BaselineAttribute, BaselinePair:
		return true
	}
	e.mu.Lock()
	multi := e.hasMulti
	e.mu.Unlock()
	if multi {
		return true
	}
	if ic := e.net.Interceptor(); ic != nil {
		ps, ok := ic.(parallelSafeInterceptor)
		if !ok || !ps.ParallelSafe() {
			return true
		}
	}
	return false
}

// registerCondition records a distinct join condition for conflict-key
// derivation. Every indexed two-way query passes through here.
func (e *Engine) registerCondition(q *query.Query) {
	key := q.ConditionKey()
	e.condMu.Lock()
	if !e.condSeen[key] {
		e.condSeen[key] = true
		e.conds = append(e.conds, q)
	}
	e.condMu.Unlock()
}

// conflictKeys appends the value-level identifier inputs tuple t's cascade
// can read or write: the inputs t itself is stored and matched under, plus
// the rewrite target of every registered join condition t can trigger.
// Two batched events sharing a key are executed in input order by the wave
// partition; events with disjoint key sets commute — their cascades meet
// only at per-input evaluator buckets keyed by exactly these inputs.
//
// The target derivation mirrors rewriteGroup/rewriteGroupV: for a
// condition side matching t's relation, the rewritten query travels to
// vlInput(otherRel, otherAttr, invert(other, eval(side, t))) — and
// invertibility guarantees a stored opposite-side tuple collides there
// exactly when the two evaluations are equal, so the derived key set
// covers every store/match pair. DAI-V stores no value-level tuples and
// meets at daivInput(eval(side, t)) instead.
func (e *Engine) conflictKeys(t *relation.Tuple, keys []string) []string {
	alg := e.cfg.Algorithm
	rel := t.Relation()
	if alg != DAIV {
		for i, schema := 0, t.Schema(); i < schema.Arity(); i++ {
			keys = append(keys, vlInput(rel, schema.Attr(i), t.ValueAt(i)))
		}
	}
	e.condMu.Lock()
	conds := e.conds
	e.condMu.Unlock()
	for _, q := range conds {
		for _, side := range []query.Side{query.SideLeft, query.SideRight} {
			if q.Rel(side).Name() != rel {
				continue
			}
			vSide, err := q.EvalSide(side, t)
			if err != nil {
				continue
			}
			if alg == DAIV {
				keys = append(keys, daivInput(vSide))
				continue
			}
			other := side.Other()
			valDA, err := q.InvertSide(other, vSide)
			if err != nil {
				continue
			}
			wantRel := q.Rel(other).Name()
			for _, a := range q.SideAttrs(other) {
				keys = append(keys, vlInput(wantRel, a, valDA))
			}
		}
	}
	return keys
}

// partitionWaves assigns each batched event the earliest wave after every
// earlier event it conflicts with. Within a wave all cascades commute;
// waves run in order with a barrier between them, which serializes every
// conflicting pair into exactly the order a sequential run executes.
func (e *Engine) partitionWaves(stamped []*relation.Tuple) [][]int {
	lastWave := make(map[string]int) // key -> 1 + index of last wave touching it
	var waves [][]int
	var keys []string
	for i, t := range stamped {
		keys = e.conflictKeys(t, keys[:0])
		w := 0
		for _, k := range keys {
			if lw := lastWave[k]; lw > w {
				w = lw
			}
		}
		if w == len(waves) {
			waves = append(waves, nil)
		}
		waves[w] = append(waves[w], i)
		for _, k := range keys {
			lastWave[k] = w + 1
		}
	}
	return waves
}

// PublishBatch inserts a batch of tuples with the same observable results a
// loop of Publish calls produces — identical timestamps, traffic and load
// counters, and notification set — executing independent cascades on up to
// `workers` goroutines. Notifications appended by the batch are kept in a
// canonical sort order rather than cascade-completion order (the OnNotify
// callback still fires in completion order). Engines running a baseline
// algorithm, a multi-way pipeline, or an arrival-order-dependent fault
// injector fall back to the sequential path.
func (e *Engine) PublishBatch(ops []PublishOp, workers int) error {
	if len(ops) == 0 {
		return nil
	}
	if e.serialOnly() {
		for _, op := range ops {
			if _, err := e.Publish(op.From, op.T); err != nil {
				return err
			}
		}
		return nil
	}
	// Validate all ops up front: a sequential loop would stop at the first
	// bad op, and a concurrent run must not interleave half a batch before
	// discovering it.
	for _, op := range ops {
		if !op.From.Alive() {
			return fmt.Errorf("engine: publish from departed node %s", op.From)
		}
		if e.catalog.Lookup(op.T.Relation()) == nil {
			return fmt.Errorf("engine: relation %s not in catalog", op.T.Relation())
		}
	}

	// Pre-stamp publication times from the sequence number: event i gets
	// base+i+1, exactly the Tick() sequence a Publish loop would draw, and
	// the closing Advance below leaves Now at base+len(ops).
	base := e.net.Clock().Now()
	stamped := make([]*relation.Tuple, len(ops))
	for i, op := range ops {
		stamped[i] = op.T.WithPubT(base + int64(i) + 1)
	}

	e.mu.Lock()
	sinkStart := len(e.sink)
	e.mu.Unlock()

	// Freeze logical time for the cascades: retry backoffs would otherwise
	// advance the clock from concurrent workers.
	e.frozen.Store(true)
	errs := make([]error, len(ops))
	if workers <= 1 {
		for i, op := range ops {
			errs[i] = e.indexTuple(op.From, stamped[i])
		}
	} else {
		for _, wave := range e.partitionWaves(stamped) {
			e.runWave(ops, stamped, errs, wave, workers)
		}
	}
	e.frozen.Store(false)

	// One advance for the whole batch restores the sequential clock value
	// and releases chaos-delayed deliveries, drained on the listener in
	// deterministic (due, priority, push) order on this goroutine.
	e.net.Clock().Advance(int64(len(ops)))

	e.sortSinkFrom(sinkStart)
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// runWave executes one wave's cascades on up to `workers` goroutines with
// atomic work stealing. A panicking cascade is re-raised on the caller
// after the wave drains.
func (e *Engine) runWave(ops []PublishOp, stamped []*relation.Tuple, errs []error, wave []int, workers int) {
	if workers > len(wave) {
		workers = len(wave)
	}
	if workers <= 1 {
		for _, i := range wave {
			errs[i] = e.indexTuple(ops[i].From, stamped[i])
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(wave) {
					return
				}
				i := wave[n]
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if panicked == nil {
								panicked = r
							}
							panicMu.Unlock()
						}
					}()
					errs[i] = e.indexTuple(ops[i].From, stamped[i])
				}()
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		e.frozen.Store(false)
		panic(panicked)
	}
}

// sortSinkFrom orders the notifications appended since index start into
// the batch's canonical order, making the sink independent of cascade
// completion order.
func (e *Engine) sortSinkFrom(start int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if start >= len(e.sink) {
		return
	}
	seg := e.sink[start:]
	sort.Slice(seg, func(i, j int) bool {
		a, b := seg[i], seg[j]
		if a.DeliveredAt != b.DeliveredAt {
			return a.DeliveredAt < b.DeliveredAt
		}
		if a.Subscriber != b.Subscriber {
			return a.Subscriber < b.Subscriber
		}
		if a.QueryKey != b.QueryKey {
			return a.QueryKey < b.QueryKey
		}
		if a.LeftPubT != b.LeftPubT {
			return a.LeftPubT < b.LeftPubT
		}
		if a.RightPubT != b.RightPubT {
			return a.RightPubT < b.RightPubT
		}
		return a.ContentKey() < b.ContentKey()
	})
}
