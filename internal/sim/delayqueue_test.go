package sim

import "testing"

func TestDelayQueueReleasesInDueThenPushOrder(t *testing.T) {
	var q DelayQueue
	var got []int
	rec := func(i int) func() { return func() { got = append(got, i) } }
	q.PushAt(5, rec(1))
	q.PushAt(3, rec(2))
	q.PushAt(5, rec(3))
	q.PushAt(4, rec(4))

	if due, ok := q.NextDue(); !ok || due != 3 {
		t.Fatalf("NextDue = %d, %v; want 3, true", due, ok)
	}
	for _, fn := range q.PopDueInto(4, nil) {
		fn()
	}
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Fatalf("after PopDueInto(4): %v, want [2 4]", got)
	}
	for _, fn := range q.PopDueInto(10, nil) {
		fn()
	}
	if len(got) != 4 || got[2] != 1 || got[3] != 3 {
		t.Fatalf("ties must release in push order: %v", got)
	}
	if q.Len() != 0 {
		t.Fatalf("queue not drained: %d items left", q.Len())
	}
}

func TestDelayQueueReentrantPush(t *testing.T) {
	var q DelayQueue
	ran := 0
	q.PushAt(1, func() {
		ran++
		q.PushAt(2, func() { ran++ })
	})
	for _, fn := range q.PopDueInto(1, nil) {
		fn()
	}
	for _, fn := range q.PopDueInto(2, nil) {
		fn()
	}
	if ran != 2 {
		t.Fatalf("ran = %d, want 2", ran)
	}
}

func TestClockListenersFireOnTickAndAdvance(t *testing.T) {
	var c Clock
	var seen []int64
	c.AddListener(func(now int64) { seen = append(seen, now) })
	c.Tick()
	c.Advance(3)
	if len(seen) != 2 || seen[0] != 2 || seen[1] != 5 {
		t.Fatalf("listener saw %v, want [2 5]", seen)
	}
}

func TestSourceDeterminism(t *testing.T) {
	a, b := NewSource(42), NewSource(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() || a.Intn(10) != b.Intn(10) || a.Int63n(1000) != b.Int63n(1000) {
			t.Fatalf("draw %d diverged between equal seeds", i)
		}
	}
}
