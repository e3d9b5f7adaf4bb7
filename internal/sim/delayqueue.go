package sim

import (
	"container/heap"

	"cqjoin/internal/lockdep"
)

// DelayQueue holds deferred actions ordered by logical due time. A fault
// injector parks delayed message deliveries here; draining the queue as the
// clock advances turns "the network held this packet for d time units" into
// a deterministic, replayable event. Ties on the due time release in push
// order, so a run is reproducible from the sequence of pushes alone.
type DelayQueue struct {
	mu    lockdep.Mutex[delayQueueMu]
	items delayHeap
	seq   int64
}

type delayQueueMu struct{} // DelayQueue.mu's lock class

type delayItem struct {
	due int64
	seq int64
	fn  func()
}

type delayHeap []delayItem

func (h delayHeap) Len() int { return len(h) }
func (h delayHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h delayHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *delayHeap) Push(x interface{}) { *h = append(*h, x.(delayItem)) }
func (h *delayHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// PushAt schedules fn to be released once the logical clock reaches due.
func (q *DelayQueue) PushAt(due int64, fn func()) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.seq++
	heap.Push(&q.items, delayItem{due: due, seq: q.seq, fn: fn})
}

// PopDueInto removes and returns every action whose due time is <= now, in
// (due, push-order) order, reusing scratch's backing array for the result so
// a drain loop amortizes the slice allocation across rounds. The caller runs
// them outside the queue's lock, so released actions may push further
// delayed actions.
func (q *DelayQueue) PopDueInto(now int64, scratch []func()) []func() {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := scratch[:0]
	for len(q.items) > 0 && q.items[0].due <= now {
		out = append(out, heap.Pop(&q.items).(delayItem).fn)
	}
	return out
}

// Len returns the number of parked actions.
func (q *DelayQueue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// NextDue returns the earliest due time of a parked action, and whether the
// queue is non-empty.
func (q *DelayQueue) NextDue() (int64, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.items) == 0 {
		return 0, false
	}
	return q.items[0].due, true
}
